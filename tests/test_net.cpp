// net-layer tests (DESIGN.md §15): incremental HTTP parsers under
// pathological fragmentation and malformed input, chunked/SSE framing
// goldens, the minimal JSON field extraction, and loopback end-to-end
// runs of the epoll server over a tiny in-test model — streamed tokens
// must be byte-identical to the sequential gen::generate() oracle,
// client disconnect must cancel the in-flight sequence and hand its KV
// pages back to the pool, and the NetParallel suite drives concurrent
// sessions for the TSan job.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "gen/generate.h"
#include "net/client.h"
#include "net/http.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "model/transformer.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/slo.h"
#include "serve/scheduler.h"

namespace llmfi {
namespace {

// --- HTTP request parser -------------------------------------------------

constexpr std::string_view kPost =
    "POST /v1/completions HTTP/1.1\r\n"
    "Host: llmfi\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: 19\r\n"
    "\r\n"
    "{\"prompt_ids\":[42]}";

TEST(HttpRequestParser, OneByteAtATime) {
  net::HttpRequestParser p;
  for (size_t i = 0; i < kPost.size(); ++i) {
    ASSERT_EQ(p.feed(kPost.substr(i, 1)), net::HttpError::Ok) << "byte " << i;
    EXPECT_EQ(p.done(), i + 1 == kPost.size()) << "byte " << i;
  }
  const net::HttpRequest& r = p.request();
  EXPECT_EQ(r.method, "POST");
  EXPECT_EQ(r.target, "/v1/completions");
  EXPECT_EQ(r.version, "HTTP/1.1");
  EXPECT_EQ(r.header("content-type"), "application/json");
  EXPECT_EQ(r.header("CONTENT-LENGTH"), "19");  // case-insensitive lookup
  EXPECT_EQ(r.body, "{\"prompt_ids\":[42]}");
  EXPECT_TRUE(r.keep_alive());
}

TEST(HttpRequestParser, PipelinedRequestsSurviveReset) {
  net::HttpRequestParser p;
  std::string two(kPost);
  two += "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(p.feed(two), net::HttpError::Ok);
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.request().method, "POST");
  // reset() re-parses the residue: the second request completes without
  // another feed.
  ASSERT_EQ(p.reset(), net::HttpError::Ok);
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.request().method, "GET");
  EXPECT_EQ(p.request().target, "/healthz");
  EXPECT_FALSE(p.request().keep_alive());
}

TEST(HttpRequestParser, PathologicalInputsMapToTypedErrors) {
  {
    net::HttpRequestParser p;
    EXPECT_EQ(p.feed("BREW /coffee HTTP/1.1\r\n\r\n"),
              net::HttpError::BadMethod);
  }
  {
    net::HttpRequestParser p;
    EXPECT_EQ(p.feed("GET nopath HTTP/1.1\r\n\r\n"),
              net::HttpError::BadRequest);
  }
  {
    net::HttpRequestParser p;
    EXPECT_EQ(p.feed("POST /v1/completions HTTP/1.1\r\nHost: x\r\n\r\n"),
              net::HttpError::LengthRequired);
  }
  {
    net::HttpLimits limits;
    limits.max_header_bytes = 64;
    net::HttpRequestParser p(limits);
    std::string big = "GET / HTTP/1.1\r\nX-Pad: ";
    big += std::string(128, 'a');
    big += "\r\n\r\n";
    EXPECT_EQ(p.feed(big), net::HttpError::HeadersTooLarge);
  }
  {
    net::HttpLimits limits;
    limits.max_body_bytes = 8;
    net::HttpRequestParser p(limits);
    EXPECT_EQ(p.feed("POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n"),
              net::HttpError::BodyTooLarge);
  }
  {
    // Errors are sticky until reset().
    net::HttpRequestParser p;
    ASSERT_EQ(p.feed("JUNK\r\n"), net::HttpError::BadRequest);
    EXPECT_FALSE(p.done());
  }
}

// --- HTTP response parser / chunked / SSE framing ------------------------

TEST(HttpResponseParser, ChunkedStreamOneByteAtATime) {
  std::string wire = net::make_stream_headers(200, "text/event-stream");
  wire += net::chunk("hello ");
  wire += net::chunk("world");
  wire += net::last_chunk();

  net::HttpResponseParser p;
  std::string body;
  for (size_t i = 0; i < wire.size(); ++i) {
    ASSERT_EQ(p.feed(wire.substr(i, 1)), net::HttpError::Ok) << "byte " << i;
    if (p.headers_done()) body += p.body_delta();
  }
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.response().status, 200);
  EXPECT_EQ(p.response().header("content-type"), "text/event-stream");
  EXPECT_EQ(body, "hello world");
  EXPECT_EQ(p.response().body, "hello world");
}

TEST(SseFraming, GoldensAndRoundTrip) {
  EXPECT_EQ(net::sse_event("x"), "data: x\n\n");
  EXPECT_EQ(net::sse_event("[DONE]"), "data: [DONE]\n\n");
  // Multi-line payloads get one data: line each, per the SSE spec.
  EXPECT_EQ(net::sse_event("a\nb"), "data: a\ndata: b\n\n");
  EXPECT_EQ(net::chunk("abc"), "3\r\nabc\r\n");
  EXPECT_EQ(net::last_chunk(), "0\r\n\r\n");

  const std::string wire = net::sse_event("{\"token_id\":7}") +
                           ": comment line\n\n" + net::sse_event("a\nb") +
                           net::sse_event("[DONE]");
  net::SseParser sse;
  std::vector<std::string> events;
  for (size_t i = 0; i < wire.size(); ++i) {  // worst-case fragmentation
    for (std::string& ev : sse.feed(wire.substr(i, 1))) {
      events.push_back(std::move(ev));
    }
  }
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], "{\"token_id\":7}");
  EXPECT_EQ(events[1], "a\nb");
  EXPECT_EQ(events[2], "[DONE]");
}

TEST(JsonFields, TolerantTopLevelLookup) {
  const std::string body =
      "{\"prompt\": \"add 2 and 3\", \"prompt_ids\": [4, 5, 6], "
      "\"max_new_tokens\": 12, \"done\": true, "
      "\"nested\": {\"max_new_tokens\": 99}, \"esc\": \"a\\\"b\\n\"}";
  EXPECT_EQ(net::json_string_field(body, "prompt").value_or(""),
            "add 2 and 3");
  EXPECT_EQ(net::json_string_field(body, "esc").value_or(""), "a\"b\n");
  EXPECT_EQ(net::json_int_field(body, "max_new_tokens").value_or(0), 12);
  EXPECT_EQ(net::json_bool_field(body, "done").value_or(false), true);
  const auto ids = net::json_int_array_field(body, "prompt_ids");
  ASSERT_TRUE(ids.has_value());
  EXPECT_EQ(*ids, (std::vector<std::int64_t>{4, 5, 6}));
  // Missing keys and keys only inside nested objects are not found.
  EXPECT_FALSE(net::json_int_field(body, "absent").has_value());
  EXPECT_FALSE(net::json_string_field("{\"a\": {\"b\": \"x\"}}", "b")
                   .has_value());
  EXPECT_EQ(net::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

// --- loopback end-to-end -------------------------------------------------

model::ModelConfig tiny_config(int max_seq = 48) {
  model::ModelConfig cfg;
  cfg.vocab_size = 24;
  cfg.d_model = 16;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 24;
  cfg.max_seq = max_seq;
  cfg.seed = 55;
  return cfg;
}

tok::Vocab tiny_vocab() {
  tok::Vocab v;  // pad/bos/eos/unk preinstalled
  while (v.size() < 24) {
    std::string word = "w";
    word += std::to_string(v.size());
    v.add(word);
  }
  return v;
}

std::vector<tok::TokenId> tokens(std::initializer_list<int> ids) {
  std::vector<tok::TokenId> out;
  for (int i : ids) out.push_back(static_cast<tok::TokenId>(i));
  return out;
}

std::string ids_body(const std::vector<tok::TokenId>& ids, int max_new) {
  std::string body = "{\"prompt_ids\":[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) body += ',';
    body += std::to_string(ids[i]);
  }
  body += "],\"max_new_tokens\":" + std::to_string(max_new) + "}";
  return body;
}

// Streams one completion and returns the token ids in arrival order;
// asserts the stream terminated with done + [DONE].
std::vector<tok::TokenId> stream_ids(net::HttpClient& client,
                                     const std::vector<tok::TokenId>& prompt,
                                     int max_new) {
  std::vector<tok::TokenId> got;
  bool saw_done = false;
  bool saw_terminator = false;
  const auto resp = client.post_sse(
      "/v1/completions", ids_body(prompt, max_new),
      [&](const std::string& ev) {
        if (ev == "[DONE]") {
          saw_terminator = true;
        } else if (net::json_bool_field(ev, "done").value_or(false)) {
          saw_done = true;
        } else if (const auto t = net::json_int_field(ev, "token_id")) {
          got.push_back(static_cast<tok::TokenId>(*t));
        }
        return true;
      });
  EXPECT_TRUE(resp.has_value());
  if (resp) {
    EXPECT_EQ(resp->status, 200);
  }
  EXPECT_TRUE(saw_done);
  EXPECT_TRUE(saw_terminator);
  return got;
}

TEST(NetLoopback, StreamedTokensMatchSequentialOracle) {
  model::InferenceModel m(model::ModelWeights::init(tiny_config()), {});
  const tok::Vocab vocab = tiny_vocab();
  serve::BatchEngine engine(m, 2);
  serve::Scheduler sched(engine);
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.max_new_tokens = 10;
  net::Server server(scfg, {sched, vocab, 10, {}, {}});
  server.start();

  const std::vector<std::vector<tok::TokenId>> prompts = {
      tokens({1, 4, 7}), tokens({5}), tokens({8, 9, 10, 11})};
  net::HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  // /healthz before load.
  const auto health = client.request("GET", "/healthz", "", "");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"status\":\"ok\""), std::string::npos);

  // Identity: streamed ids byte-identical to gen::generate, reusing one
  // kept-alive connection across requests.
  for (const auto& p : prompts) {
    gen::GenerationConfig gcfg;
    gcfg.max_new_tokens = 10;
    gcfg.eos = vocab.eos();
    const auto ref = gen::generate(m, p, gcfg).tokens;
    EXPECT_EQ(stream_ids(client, p, 10), ref);
  }

  // Error paths on the same connection: unknown target, empty prompt,
  // out-of-range ids.
  const auto miss = client.request("GET", "/nope", "", "");
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(miss->status, 404);
  const auto empty =
      client.request("POST", "/v1/completions", "application/json", "{}");
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->status, 400);
  const auto oob = client.request("POST", "/v1/completions",
                                  "application/json",
                                  "{\"prompt_ids\":[9999]}");
  ASSERT_TRUE(oob.has_value());
  EXPECT_EQ(oob->status, 400);
  // The connection still serves after the 4xx round trips.
  gen::GenerationConfig gcfg4;
  gcfg4.max_new_tokens = 4;
  gcfg4.eos = vocab.eos();
  EXPECT_EQ(stream_ids(client, prompts[0], 4),
            gen::generate(m, prompts[0], gcfg4).tokens);

  server.request_drain();
  server.wait();
  EXPECT_EQ(server.stats().bad_requests.load(), 3u);
  EXPECT_EQ(sched.stats().cancelled, 0u);
}

TEST(NetLoopback, DisconnectCancelsInFlightAndFreesKvPages) {
  // A roomy max_seq gives the aborted request a long remaining decode,
  // so the disconnect always lands while its slot is still active.
  model::InferenceModel m(model::ModelWeights::init(tiny_config(1024)), {});
  const tok::Vocab vocab = tiny_vocab();
  auto pool = std::make_shared<nn::PagePool>(
      1024, nn::PagePool::kDefaultPageRows, tiny_config().d_model);
  const int total_pages = pool->free_pages();
  serve::BatchEngine engine(m, 2, pool);
  serve::Scheduler sched(engine);
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.max_new_tokens = 900;
  net::Server server(scfg, {sched, vocab, 900, {}, {}});
  server.start();

  net::HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  int events = 0;
  const auto resp = client.post_sse(
      "/v1/completions", ids_body(tokens({1, 4, 7}), 900),
      [&events](const std::string&) { return ++events < 3; });
  EXPECT_FALSE(resp.has_value());  // aborted mid-stream: no final response
  EXPECT_GE(events, 3);

  // The server notices the disconnect (EOF on a streaming connection)
  // and cancels the in-flight sequence.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().disconnect_cancels.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.stats().disconnect_cancels.load(), 1u);

  server.request_drain();
  server.wait();
  // Scheduler state is safe to read once the engine thread exited.
  EXPECT_EQ(sched.stats().cancelled, 1u);
  EXPECT_EQ(engine.stats().cancelled, 1u);
  EXPECT_EQ(sched.stats().completed, 0u);
  // The cancelled slot's pages went back to the pool immediately; after
  // the drain the pool must be whole again.
  EXPECT_EQ(pool->free_pages(), total_pages);
}

TEST(NetLoopback, PromptLongerThanMaxSeqIsRejectedAndServerSurvives) {
  // A prompt the KV cache cannot hold used to reach the admission
  // prefill, throw from KvCache::append on the engine thread and
  // terminate the process.
  model::InferenceModel m(model::ModelWeights::init(tiny_config(160)), {});
  const tok::Vocab vocab = tiny_vocab();
  auto pool = std::make_shared<nn::PagePool>(
      64, nn::PagePool::kDefaultPageRows, tiny_config().d_model);
  const int total_pages = pool->free_pages();
  serve::BatchEngine engine(m, 2, pool);
  serve::Scheduler sched(engine);
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.max_new_tokens = 4;
  net::Server server(scfg, {sched, vocab, 4, {}, {}});
  server.start();

  net::HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  const std::vector<tok::TokenId> too_long(161, 5);
  const auto resp = client.request("POST", "/v1/completions",
                                   "application/json", ids_body(too_long, 4));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 400);
  EXPECT_NE(resp->body.find("161"), std::string::npos) << resp->body;
  EXPECT_NE(resp->body.find("160"), std::string::npos) << resp->body;

  const auto health = client.request("GET", "/healthz", "", "");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"status\":\"ok\""), std::string::npos);
  // A prompt at the limit is still served.
  const std::vector<tok::TokenId> at_limit(160, 5);
  gen::GenerationConfig gcfg;
  gcfg.max_new_tokens = 4;
  gcfg.eos = vocab.eos();
  EXPECT_EQ(stream_ids(client, at_limit, 4),
            gen::generate(m, at_limit, gcfg).tokens);

  server.request_drain();
  server.wait();
  EXPECT_EQ(server.stats().bad_requests.load(), 1u);
  EXPECT_EQ(pool->free_pages(), total_pages);
}

// --- observability endpoints (DESIGN.md §16) ------------------------------

// Streams one completion and returns the server-assigned request id
// carried on the done event.
std::int64_t stream_and_get_id(net::HttpClient& client,
                               const std::vector<tok::TokenId>& prompt,
                               int max_new) {
  std::int64_t id = -1;
  const auto resp = client.post_sse(
      "/v1/completions", ids_body(prompt, max_new),
      [&](const std::string& ev) {
        if (ev != "[DONE]" &&
            net::json_bool_field(ev, "done").value_or(false)) {
          id = net::json_int_field(ev, "id").value_or(-1);
        }
        return true;
      });
  EXPECT_TRUE(resp.has_value());
  return id;
}

TEST(NetLoopback, RequestTimelineVarzAndSloEndpoints) {
  obs::recorder_clear();
  obs::recorder_start(512);
  obs::metrics_start();
  obs::SloMonitor::global().reset();
  obs::SloMonitor::global().configure({500.0, 250.0, 0.99});
  obs::SloMonitor::global().enable();

  model::InferenceModel m(model::ModelWeights::init(tiny_config()), {});
  const tok::Vocab vocab = tiny_vocab();
  serve::BatchEngine engine(m, 2);
  serve::Scheduler sched(engine);
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.max_new_tokens = 8;
  net::Server server(scfg, {sched, vocab, 8, {}, [] {
                              return std::string(
                                  "{\"server\":\"test\",\"model\":\"tiny\"}");
                            }});
  server.start();

  net::HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  const std::int64_t id = stream_and_get_id(client, tokens({1, 4, 7}), 8);
  ASSERT_GT(id, 0);

  // Per-request timeline: the admit/retire events the engine recorded
  // under this request's context, and nothing from other requests.
  const auto timeline =
      client.request("GET", "/v1/requests/" + std::to_string(id), "", "");
  ASSERT_TRUE(timeline.has_value());
  EXPECT_EQ(timeline->status, 200);
  EXPECT_NE(timeline->body.find("\"request_id\":" + std::to_string(id)),
            std::string::npos)
      << timeline->body;
  EXPECT_NE(timeline->body.find("\"request_admit\""), std::string::npos);
  EXPECT_NE(timeline->body.find("\"request_retire\""), std::string::npos);

  // Unknown and malformed ids are 404s, not empty timelines.
  const auto miss = client.request("GET", "/v1/requests/986923", "", "");
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(miss->status, 404);
  const auto malformed = client.request("GET", "/v1/requests/12x", "", "");
  ASSERT_TRUE(malformed.has_value());
  EXPECT_EQ(malformed->status, 404);

  // The collection root serves the full flight-recorder dump.
  const auto full = client.request("GET", "/v1/requests", "", "");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->status, 200);
  EXPECT_NE(full->body.find("\"ring_capacity\""), std::string::npos);

  // /varz serves the backend's config snapshot verbatim.
  const auto varz = client.request("GET", "/varz", "", "");
  ASSERT_TRUE(varz.has_value());
  EXPECT_EQ(varz->status, 200);
  EXPECT_EQ(varz->body, "{\"server\":\"test\",\"model\":\"tiny\"}");

  // /metrics publishes the SLO gauges at scrape time, and the burn rate
  // printed must satisfy its own definition against the printed
  // attainment and objective.
  const auto metrics = client.request("GET", "/metrics", "", "");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("slo_attainment{slo=\"ttft\",window=\"60s\"}"),
            std::string::npos)
      << metrics->body;
  EXPECT_NE(
      metrics->body.find("slo_burn_rate{slo=\"token_gap\",window=\"1s\"}"),
      std::string::npos);
  EXPECT_NE(metrics->body.find("slo_objective 0.99"), std::string::npos);
  EXPECT_NE(metrics->body.find("serve_ttft_us_count"), std::string::npos);

  server.request_drain();
  server.wait();
  obs::metrics_stop();
  obs::recorder_stop();
  obs::recorder_clear();
}

TEST(NetLoopback, VarzWithoutCallbackServesMinimalBody) {
  model::InferenceModel m(model::ModelWeights::init(tiny_config()), {});
  const tok::Vocab vocab = tiny_vocab();
  serve::BatchEngine engine(m, 2);
  serve::Scheduler sched(engine);
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.max_new_tokens = 8;
  net::Server server(scfg, {sched, vocab, 8, {}, {}});
  server.start();

  net::HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  const auto varz = client.request("GET", "/varz", "", "");
  ASSERT_TRUE(varz.has_value());
  EXPECT_EQ(varz->status, 200);
  EXPECT_EQ(varz->body, "{\"server\":\"llmfi_serve\"}");
  // Without the recorder armed the timeline endpoint has nothing.
  obs::recorder_clear();
  const auto timeline = client.request("GET", "/v1/requests/1", "", "");
  ASSERT_TRUE(timeline.has_value());
  EXPECT_EQ(timeline->status, 404);

  server.request_drain();
  server.wait();
}

// --- concurrent sessions (TSan target) -----------------------------------

TEST(NetParallel, ConcurrentSessionsVerifyAgainstOracle) {
  model::InferenceModel m(model::ModelWeights::init(tiny_config()), {});
  const tok::Vocab vocab = tiny_vocab();
  auto pool = std::make_shared<nn::PagePool>(
      256, nn::PagePool::kDefaultPageRows, tiny_config().d_model);
  serve::BatchEngine engine(m, 4, pool);
  serve::Scheduler sched(engine);
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.max_new_tokens = 8;
  net::Server server(scfg, {sched, vocab, 8, {}, {}});
  server.start();

  std::vector<net::LoadPrompt> prompts;
  for (int base : {4, 7, 10, 13}) {
    net::LoadPrompt p;
    p.ids = tokens({1, base, base + 1});
    gen::GenerationConfig gcfg;
    gcfg.max_new_tokens = 8;
    gcfg.eos = vocab.eos();
    p.expect = gen::generate(m, p.ids, gcfg).tokens;
    prompts.push_back(std::move(p));
  }

  net::LoadArmConfig cfg;
  cfg.name = "tsan";
  cfg.mode = net::ArrivalMode::Closed;
  cfg.sessions = 4;
  cfg.requests = 24;
  cfg.max_new_tokens = 8;
  const net::LoadArmResult r =
      net::run_load_arm("127.0.0.1", server.port(), prompts, cfg);
  EXPECT_EQ(r.completed, 24);
  EXPECT_EQ(r.errors, 0);
  EXPECT_EQ(r.mismatches, 0);
  EXPECT_GT(r.tokens, 0u);

  server.request_drain();
  server.wait();
  EXPECT_EQ(sched.stats().completed, 24u);
}

TEST(NetParallel, SubmitCancelChurnDrainsClean) {
  model::InferenceModel m(model::ModelWeights::init(tiny_config(256)), {});
  const tok::Vocab vocab = tiny_vocab();
  auto pool = std::make_shared<nn::PagePool>(
      512, nn::PagePool::kDefaultPageRows, tiny_config().d_model);
  const int total_pages = pool->free_pages();
  serve::BatchEngine engine(m, 2, pool);
  serve::Scheduler sched(engine);
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.max_new_tokens = 200;
  net::Server server(scfg, {sched, vocab, 200, {}, {}});
  server.start();

  // Several client threads abort mid-stream concurrently while others
  // run to completion — the cancellation path under contention.
  std::atomic<int> finished{0};
  auto aborter = [&] {
    net::HttpClient c;
    if (!c.connect("127.0.0.1", server.port())) return;
    int events = 0;
    c.post_sse("/v1/completions", ids_body(tokens({1, 5, 9}), 200),
               [&events](const std::string&) { return ++events < 2; });
  };
  auto completer = [&] {
    net::HttpClient c;
    if (!c.connect("127.0.0.1", server.port())) return;
    stream_ids(c, tokens({1, 6, 11}), 6);  // asserts done + [DONE]
    finished.fetch_add(1);
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back(aborter);
  for (int i = 0; i < 3; ++i) threads.emplace_back(completer);
  for (auto& t : threads) t.join();

  server.request_drain();
  server.wait();
  EXPECT_EQ(finished.load(), 3);
  // Every submitted request either completed or cancelled — none lost.
  EXPECT_GE(sched.stats().completed, 3u);
  EXPECT_EQ(sched.stats().completed + sched.stats().cancelled, 6u);
  // Cancelled or completed, every request's pages came back.
  EXPECT_EQ(pool->free_pages(), total_pages);
}

}  // namespace
}  // namespace llmfi
