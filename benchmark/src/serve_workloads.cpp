// Serve workloads: the shipped llmfi_serve binary, spawned with its
// defaults (Reference kernel tier, flight recorder on) plus
// `--batch 4 --kv-pages 128`, driven over loopback by the load generator
// in loadgen.cpp. Every streamed token is checked against the
// gen::generate oracle computed in this process, and every server must
// drain on SIGTERM with all KV pages free.
//
// --kv-pages 128 covers batch 4 x the longest request's worst case of
// 27 pages (3 blocks x 9 pages of 16 rows for 136 + 8 positions). A
// tighter pool can kill the server: BatchEngine::can_admit compares a
// newcomer's worst case with the pages free now, ignoring the decode
// growth of active rows, so the next step() can exhaust the pool and the
// runtime_error escapes Scheduler::tick into std::terminate (reproduced
// at 48 pages). The benchmark does not work around that; see README.md.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <thread>

#include "bench.h"
#include "data/tasks.h"
#include "eval/runner.h"
#include "gen/generate.h"
#include "layers.h"
#include "loadgen.h"
#include "nn/kv_page.h"
#include "obs/trace.h"
#include "serve/scheduler.h"
#include "spans.h"

namespace llmfi::bench {

namespace {

struct ServeWorkload {
  const char* name;
  double rate_hz;  // Poisson arrival rate
  int max_new;
  bool long_prompts;  // composed xlsum-syn texts instead of gsm8k-syn
};

// Both arrive open loop, at about 40% (chat) and 20% (longctx) of the
// server's capacity. serve-chat: 8-10 token prompts; TTFT is mostly
// HTTP/SSE and engine hand-off, so net and scheduler changes show and
// kernels barely do. serve-longctx: 104-136 token prompts; every
// admission forward stalls the decoding rows, so prefill, chunking and
// kernel changes show and net changes do not. Its rate is low so that
// its TTFT median is the prefill, not queueing: across six seeds the
// median ranged over 5% at 20 req/s and 27% at 40 req/s. (A closed loop
// of four connections makes the server a FIFO prefill queue whose TTFT
// has modes at one to four prefills; its median jumped between modes by
// 20% from run to run.)
constexpr ServeWorkload kWorkloads[] = {
    {"serve-chat", 200.0, 32, false},
    {"serve-longctx", 20.0, 8, true},
};
constexpr int kBatch = 4;
constexpr int kKvPages = 128;
constexpr int kLongPrompts = 96;
constexpr int kLongMin = 104;
constexpr int kLongMax = 136;
constexpr int kSetupRepeats = 9;
constexpr int kReplayRequests = 300;
const std::string kHost = "127.0.0.1";

const ServeWorkload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// One llmfi_serve child on an ephemeral port, stdout on a pipe (for the
// port and the drain summary), stderr appended to a log file. The child
// is killed if this process dies first, so no server outlives a run.
class ServerProcess {
 public:
  ServerProcess(const std::string& log_path,
                const std::vector<std::string>& extra) {
    std::vector<std::string> args = {LLMFI_SERVE_BIN, "--port", "0",
                                     "--batch", std::to_string(kBatch),
                                     "--kv-pages", std::to_string(kKvPages)};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return;
    const int log_fd = ::open(log_path.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    const pid_t parent = ::getpid();
    t0_ = Clock::now();
    pid_ = ::fork();
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], 1);
      if (log_fd >= 0) ::dup2(log_fd, 2);
      ::execv(LLMFI_SERVE_BIN, argv.data());
      ::_exit(127);
    }
    if (log_fd >= 0) ::close(log_fd);
    ::close(fds[1]);
    out_fd_ = fds[0];
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

  // Seconds from spawn to the first 200 on /healthz; negative when the
  // server never got there.
  double wait_ready() {
    if (pid_ <= 0 || !read_until("listening on", 30.0)) return -1.0;
    const std::size_t at = out_.find("listening on");
    const std::size_t colon = out_.find(':', at);
    port_ = std::atoi(out_.c_str() + colon + 1);
    while (seconds_since(t0_) < 30.0) {
      if (!http_get(kHost, port_, "/healthz").empty()) {
        return seconds_since(t0_);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return -1.0;
  }

  // SIGTERM, collect the rest of stdout, reap. Returns the exit status
  // (-1 when killed by a signal or not running).
  int drain(std::string* out) {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    if (!read_until("", 30.0)) ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    *out = out_;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  // Reads stdout until it contains `needle` (an empty needle: until
  // EOF) or `timeout_s` passes.
  bool read_until(const std::string& needle, double timeout_s) {
    const Clock::time_point t0 = Clock::now();
    while (needle.empty() || out_.find(needle) == std::string::npos) {
      const double left = timeout_s - seconds_since(t0);
      if (left <= 0.0) return false;
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return needle.empty();
      out_.append(buf, static_cast<std::size_t>(n));
    }
    return true;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  Clock::time_point t0_;
  std::string out_;
};

// Drains `s` and checks the shutdown contract: exit 0 with every KV page
// back in the pool.
void drain_and_check(ServerProcess& s, Report& r) {
  std::string out;
  const int code = s.drain(&out);
  const std::string pages = "kv pages: " + std::to_string(kKvPages) +
                            " total, " + std::to_string(kKvPages) + " free";
  if (code != 0 || out.find(pages) == std::string::npos) {
    r.problem("llmfi_serve drain: exit " + std::to_string(code) +
              ", stdout:\n" + out);
  }
}

// --- /metrics scrapes ----------------------------------------------------

using Scrape = std::map<std::string, double>;  // series -> value

Scrape scrape(int port) {
  Scrape s;
  const std::string text = http_get(kHost, port, "/metrics");
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t sp = line.rfind(' ');
    if (line.empty() || line[0] == '#' || sp == std::string::npos) continue;
    s[line.substr(0, sp)] = std::atof(line.c_str() + sp + 1);
  }
  return s;
}

double delta(const Scrape& a, const Scrape& b, const std::string& key) {
  const auto ia = a.find(key);
  const auto ib = b.find(key);
  return (ib == b.end() ? 0.0 : ib->second) -
         (ia == a.end() ? 0.0 : ia->second);
}

// Quantile of histogram `name` over the samples observed between two
// scrapes, interpolated inside the containing bucket exactly as
// obs::Histogram::quantile does.
double delta_quantile(const Scrape& a, const Scrape& b,
                      const std::string& name, double q) {
  const std::string prefix = name + "_bucket{le=\"";
  std::vector<std::pair<double, double>> cum;  // (upper bound, count)
  for (auto it = b.lower_bound(prefix);
       it != b.end() && it->first.rfind(prefix, 0) == 0; ++it) {
    const std::string le = it->first.substr(prefix.size());
    const double bound =
        le.rfind("+Inf", 0) == 0 ? INFINITY : std::atof(le.c_str());
    cum.push_back({bound, delta(a, b, it->first)});
  }
  std::sort(cum.begin(), cum.end());
  if (cum.empty() || cum.back().second <= 0.0) return 0.0;
  const double rank = q * cum.back().second;
  double prev_cum = 0.0, lo = 0.0;
  for (const auto& [hi, c] : cum) {
    const double in_bucket = c - prev_cum;
    if (in_bucket > 0.0 && c >= rank) {
      if (std::isinf(hi)) return lo;
      const double frac = std::clamp((rank - prev_cum) / in_bucket, 0.0, 1.0);
      return lo + (hi - lo) * frac;
    }
    prev_cum = c;
    lo = hi;
  }
  return lo;
}

// --- inputs ----------------------------------------------------------------

// The workload's distinct prompts with their oracle continuations.
std::vector<Prompt> make_prompts(const ServeWorkload& w, Engine& e,
                                 std::uint64_t seed) {
  const tok::Vocab& vocab = e.zoo.vocab();
  const auto with_oracle = [&](std::vector<tok::TokenId> ids) {
    Prompt p{std::move(ids), w.max_new, {}};
    gen::GenerationConfig cfg;
    cfg.max_new_tokens = w.max_new;
    Span s("gen.generate");
    p.expect = gen::generate(*e.model, p.ids, cfg).tokens;
    return p;
  };
  std::vector<Prompt> out;
  if (!w.long_prompts) {
    for (const auto& ex : e.zoo.task(data::TaskKind::MathGsm).eval) {
      out.push_back(with_oracle(eval::build_prompt(vocab, ex, false)));
    }
    return out;
  }
  // Prompt lengths are spread evenly over their range, the same for every
  // seed; the seed picks the texts. A cut whose first oracle token is EOS
  // has no time to first token and is drawn again.
  std::mt19937_64 rng(seed);
  const auto& texts = e.zoo.task(data::TaskKind::Summarization).eval;
  std::uniform_int_distribution<std::size_t> pick(0, texts.size() - 1);
  for (int k = 0; k < kLongPrompts; ++k) {
    const auto target = static_cast<std::size_t>(
        kLongMin + k * (kLongMax - kLongMin) / (kLongPrompts - 1));
    for (;;) {
      std::vector<tok::TokenId> ids = {vocab.bos()};
      while (ids.size() < target) {
        const auto body = vocab.encode(texts[pick(rng)].prompt);
        ids.insert(ids.end(), body.begin(), body.end());
      }
      ids.resize(target);
      Prompt p = with_oracle(std::move(ids));
      if (!p.expect.empty()) {
        out.push_back(std::move(p));
        break;
      }
    }
  }
  return out;
}

// `seconds` of Poisson arrivals: rate x seconds due times drawn
// uniformly in [0, seconds) (a Poisson process conditioned on its count,
// so every run offers the same number of requests), each with a random
// prompt.
LoadPlan make_plan(const ServeWorkload& w, const std::vector<Prompt>& prompts,
                   double seconds, std::mt19937_64& rng) {
  LoadPlan plan;
  const auto n = static_cast<std::size_t>(std::llround(w.rate_hz * seconds));
  std::uniform_int_distribution<std::size_t> pick(0, prompts.size() - 1);
  std::uniform_real_distribution<double> at(0.0, seconds);
  for (std::size_t i = 0; i < n; ++i) {
    plan.requests.push_back(&prompts[pick(rng)]);
    plan.due_s.push_back(at(rng));
  }
  std::sort(plan.due_s.begin(), plan.due_s.end());
  return plan;
}

void account(const LoadResult& load, Report& r) {
  r.attempted += static_cast<long long>(load.samples.size());
  r.failed += load.failed();
  long long transport = 0, no_done = 0, mismatch = 0;
  for (const auto& s : load.samples) {
    transport += s.transport_error;
    no_done += s.no_done;
    mismatch += s.mismatch;
  }
  if (load.failed() > 0) {
    r.problem(std::to_string(load.failed()) + " of " +
              std::to_string(load.samples.size()) + " requests failed (" +
              std::to_string(transport) + " transport errors, " +
              std::to_string(no_done) + " without done, " +
              std::to_string(mismatch) + " oracle mismatches)");
  }
}

// Runs `plan` against `server` under one net.load span and accounts
// every request's outcome.
LoadResult load(const ServerProcess& server, LoadPlan plan, Report& r) {
  Span s("net.load");
  plan.span_parent = s.index();
  LoadResult res = run_load(kHost, server.port(), plan);
  account(res, r);
  return res;
}

// In-process replay of the first requests of the measured stream through
// Scheduler::submit/tick, with the program's obs tracer on: each tick is
// a benchmark span, and the admission / decode_step spans inside it come
// from the program, so their sums must account for the tick time.
std::vector<ProgramSpan> replay(Engine& e, const LoadPlan& plan,
                                Report& r) {
  const auto pool = std::make_shared<nn::PagePool>(
      kKvPages, nn::PagePool::kDefaultPageRows, e.model->config().d_model);
  serve::BatchEngine engine(*e.model, kBatch, pool);
  serve::Scheduler sched(engine);
  const std::size_t n = std::min<std::size_t>(plan.requests.size(),
                                              kReplayRequests);
  std::vector<double> tick_us;
  double prompt_tokens = 0.0;
  std::size_t next = 0;
  long long mismatches = 0;
  std::vector<serve::Completion> done;

  obs::trace_start();
  const Clock::time_point t0 = Clock::now();
  while (next < n || !sched.idle()) {
    while (next < n && plan.due_s[next] <= seconds_since(t0)) {
      serve::Request req;
      req.id = next + 1;
      req.prompt = plan.requests[next]->ids;
      req.max_new_tokens = plan.requests[next]->max_new;
      prompt_tokens += static_cast<double>(req.prompt.size());
      sched.submit(std::move(req));
      ++next;
    }
    if (sched.idle()) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(plan.due_s[next])));
      continue;
    }
    Span s("serve.tick", static_cast<std::int64_t>(tick_us.size()));
    sched.tick(done);
    tick_us.push_back(s.stop() * 1e6);
    for (const auto& c : done) {
      mismatches += c.tokens != plan.requests[c.id - 1]->expect;
    }
    done.clear();
  }
  obs::trace_stop();
  std::vector<ProgramSpan> spans = parse_program_trace(obs::trace_json());
  obs::trace_clear();

  r.attempted += static_cast<long long>(n);
  r.failed += mismatches;
  if (mismatches > 0) {
    r.problem(std::to_string(mismatches) +
              " replayed requests differ from the oracle");
  }
  double admit_us = 0.0, step_us = 0.0, tick_sum = 0.0;
  for (const ProgramSpan& s : spans) {
    if (s.name == "admission") admit_us += s.dur_us;
    if (s.name == "decode_step") step_us += s.dur_us;
  }
  for (const double t : tick_us) tick_sum += t;
  r.set("serve.tick_us_p50", percentile(tick_us, 0.5));
  r.set("serve.tick_us_p90", percentile(tick_us, 0.9));
  r.set("serve.admit_us_per_prompt_tok", admit_us / prompt_tokens);
  r.set("serve.replay_accounted_frac", (admit_us + step_us) / tick_sum);
  add_step_times(spans, r);
  return spans;
}

std::string file_contents(const std::string& path) {
  std::string out;
  if (FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[65536];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

Report run_serve_workload(const Options& opt) {
  const ServeWorkload& w = *find_workload(opt.workload);
  Report r;
  const std::string stem =
      opt.out_dir + "/" + opt.workload + ".seed" + std::to_string(opt.seed);
  const std::string log = stem + ".server.log";
  const std::vector<std::string> recorder = {"--recorder-dump",
                                             stem + ".flight.json"};
  auto engine = load_engine();
  const std::vector<Prompt> prompts = make_prompts(w, *engine, opt.seed);
  std::mt19937_64 rng(opt.seed);
  const LoadPlan warm = make_plan(w, prompts, 0.1 * opt.seconds, rng);

  if (!opt.trace) {
    // Set-up: spawn to the first 200 on /healthz, repeated; every server
    // but the last is drained and checked at once.
    std::vector<double> setup_s;
    std::unique_ptr<ServerProcess> server;
    for (int i = 0; i < kSetupRepeats; ++i) {
      if (server) drain_and_check(*server, r);
      server = std::make_unique<ServerProcess>(log, recorder);
      setup_s.push_back(server->wait_ready());
      if (setup_s.back() < 0.0) {
        r.problem("llmfi_serve did not become healthy; see " + log);
        return r;
      }
    }
    load(*server, warm, r);
    const LoadResult res =
        load(*server, make_plan(w, prompts, opt.seconds, rng), r);
    r.set("peak_rss_mb", peak_rss_mb(server->pid()));
    drain_and_check(*server, r);
    double last_s = 0.0;
    for (const auto& s : res.samples) last_s = std::max(last_s, s.end_s);
    r.set("setup_s", median(setup_s));
    r.set("throughput_per_s",
          static_cast<double>(res.samples.size() - res.failed()) / last_s);
    r.set("latency_ms_p50", median(res.ttft_ms()));
    r.extra_json.push_back("\"setup_s\": " + json_array(setup_s));
    return r;
  }

  // Traced run. Phase A: untraced server and client, the yardstick for
  // the tracing overhead.
  const double half = 0.5 * opt.seconds;
  double plain_e2e_ms = 0.0;
  {
    ServerProcess server(log, recorder);
    if (server.wait_ready() < 0.0) {
      r.problem("llmfi_serve did not become healthy; see " + log);
      return r;
    }
    load(server, warm, r);
    plain_e2e_ms =
        percentile(load(server, make_plan(w, prompts, half, rng), r).e2e_ms(),
                   0.5);
    drain_and_check(server, r);
  }

  // Phase B: benchmark spans on and the server's obs tracer writing to
  // a file it flushes at exit.
  spans_enable();
  const std::string server_trace = stem + ".server-obs.json";
  std::vector<std::string> traced_args = recorder;
  traced_args.insert(traced_args.end(), {"--trace", server_trace});
  ServerProcess server(log, traced_args);
  if (server.wait_ready() < 0.0) {
    r.problem("llmfi_serve did not become healthy; see " + log);
    return r;
  }
  load(server, warm, r);
  const LoadPlan plan = make_plan(w, prompts, half, rng);
  const Scrape before = scrape(server.port());
  const LoadResult res = load(server, plan, r);
  const Scrape after = scrape(server.port());
  drain_and_check(server, r);
  const std::vector<ProgramSpan> server_spans =
      parse_program_trace(file_contents(server_trace));

  const auto ttft = res.ttft_ms();
  const auto gaps = res.gaps_ms();
  const double server_ttft_ms =
      delta_quantile(before, after, "serve_ttft_us", 0.5) / 1e3;
  r.set("obs.trace_overhead_frac",
        percentile(res.e2e_ms(), 0.5) / plain_e2e_ms - 1.0);
  r.set("net.ttft_overhead_ms_p50", percentile(ttft, 0.5) - server_ttft_ms);
  r.set("net.send_lag_ms_p90", percentile(res.send_lag_ms(), 0.9));
  r.set("net.http_requests",
        delta(before, after, "net_http_requests_total"));
  r.set("net.sse_events", delta(before, after, "net_sse_events_total"));
  r.set("serve.queue_wait_ms_p50",
        delta_quantile(before, after, "serve_queue_wait_us", 0.5) / 1e3);
  r.set("serve.queue_wait_ms_p90",
        delta_quantile(before, after, "serve_queue_wait_us", 0.9) / 1e3);
  r.set("serve.ttft_server_ms_p50", server_ttft_ms);
  r.set("serve.ttft_server_ms_p90",
        delta_quantile(before, after, "serve_ttft_us", 0.9) / 1e3);
  r.set("serve.decode_token_us_p50",
        delta_quantile(before, after, "serve_decode_token_us", 0.5));
  r.set("serve.batch_occupancy_mean",
        delta(before, after, "serve_batch_occupancy_sum") /
            delta(before, after, "serve_batch_occupancy_count"));
  r.set("client.ttft_ms_p90", percentile(ttft, 0.9));
  r.set("client.ttft_ms_p95", percentile(ttft, 0.95));
  r.set("client.ttft_ms_p99", percentile(ttft, 0.99));
  r.set("client.gap_ms_p50", percentile(gaps, 0.5));
  r.set("client.gap_ms_p90", percentile(gaps, 0.9));
  r.set("client.gap_ms_p99", percentile(gaps, 0.99));
  r.set("client.e2e_ms_p50", percentile(res.e2e_ms(), 0.5));
  r.set("client.e2e_ms_p99", percentile(res.e2e_ms(), 0.99));
  r.set("client.ttft_samples", static_cast<double>(ttft.size()));
  r.set("client.gap_samples", static_cast<double>(gaps.size()));
  add_self_fracs(server_spans, r);

  const std::vector<ProgramSpan> replay_spans = replay(*engine, plan, r);
  measure_layers(*engine, r);

  r.extra_json.push_back("\"server_self_time\": " +
                         self_time_json(program_self_times(server_spans)));
  r.extra_json.push_back("\"replay_self_time\": " +
                         self_time_json(program_self_times(replay_spans)));
  const std::string path = stem + ".trace.json";
  if (!write_trace(path, {{"llmfi_serve obs spans", server_spans},
                          {"in-process replay obs spans", replay_spans}})) {
    r.problem("cannot write " + path);
  }
  return r;
}

}  // namespace llmfi::bench
