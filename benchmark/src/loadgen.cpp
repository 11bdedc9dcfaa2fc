#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench.h"
#include "net/client.h"
#include "spans.h"

namespace llmfi::bench {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string completion_body(const Prompt& p) {
  std::string body = "{\"prompt_ids\":[";
  for (std::size_t i = 0; i < p.ids.size(); ++i) {
    if (i > 0) body += ',';
    body += std::to_string(p.ids[i]);
  }
  body += "],\"max_new_tokens\":" + std::to_string(p.max_new) + "}";
  return body;
}

// Streams one completion over `client` into `s`; latency counts from
// `base`, the due time.
void stream_request(net::HttpClient& client, const std::string& host,
                    int port, const Prompt& p, Clock::time_point base,
                    RequestSample& s, Clock::time_point* end) {
  if (!client.connected() && !client.connect(host, port)) {
    s.transport_error = true;
    *end = Clock::now();
    return;
  }
  std::vector<tok::TokenId> got;
  bool saw_done = false;
  bool cancelled = false;
  Clock::time_point prev = base;
  const auto on_event = [&](const std::string& ev) {
    if (net::json_bool_field(ev, "done").value_or(false)) {
      saw_done = true;
      cancelled = net::json_bool_field(ev, "cancelled").value_or(false);
      return true;
    }
    if (const auto tid = net::json_int_field(ev, "token_id")) {
      const Clock::time_point now = Clock::now();
      if (got.empty()) {
        s.ttft_ms = ms_between(base, now);
      } else {
        s.gaps_ms.push_back(ms_between(prev, now));
      }
      prev = now;
      got.push_back(static_cast<tok::TokenId>(*tid));
    }
    return true;
  };
  const auto resp =
      client.post_sse("/v1/completions", completion_body(p), on_event);
  *end = Clock::now();
  s.e2e_ms = ms_between(base, *end);
  if (!resp || resp->status != 200) {
    s.transport_error = true;
    client.close();
    return;
  }
  s.tokens = static_cast<int>(got.size());
  s.no_done = !saw_done || cancelled;
  s.mismatch = got != p.expect;
  s.ok = !s.no_done && !s.mismatch;
}

}  // namespace

long long LoadResult::failed() const {
  return std::count_if(samples.begin(), samples.end(),
                       [](const RequestSample& s) { return !s.ok; });
}

std::vector<double> LoadResult::ttft_ms() const {
  std::vector<double> v;
  for (const auto& s : samples) {
    if (s.ok && s.tokens > 0) v.push_back(s.ttft_ms);
  }
  return v;
}

std::vector<double> LoadResult::gaps_ms() const {
  std::vector<double> v;
  for (const auto& s : samples) {
    if (s.ok) v.insert(v.end(), s.gaps_ms.begin(), s.gaps_ms.end());
  }
  return v;
}

std::vector<double> LoadResult::e2e_ms() const {
  std::vector<double> v;
  for (const auto& s : samples) {
    if (s.ok) v.push_back(s.e2e_ms);
  }
  return v;
}

std::vector<double> LoadResult::send_lag_ms() const {
  std::vector<double> v;
  for (const auto& s : samples) v.push_back(s.send_lag_ms);
  return v;
}

LoadResult run_load(const std::string& host, int port, const LoadPlan& plan) {
  LoadResult r;
  r.samples.resize(plan.requests.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();

  const auto worker = [&] {
    net::HttpClient client;
    for (std::size_t i; (i = next.fetch_add(1)) < r.samples.size();) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(plan.due_s[i]));
      std::this_thread::sleep_until(due);
      Span span("net.post_sse", static_cast<std::int64_t>(i),
                plan.span_parent);
      RequestSample& s = r.samples[i];
      s.send_lag_ms = ms_between(due, Clock::now());
      Clock::time_point end;
      stream_request(client, host, port, *plan.requests[i], due, s, &end);
      s.end_s = std::chrono::duration<double>(end - t0).count();
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kMaxConnections; ++c) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  return r;
}

std::string http_get(const std::string& host, int port,
                     const std::string& path) {
  net::HttpClient client;
  if (!client.connect(host, port)) return "";
  const auto resp = client.request("GET", path);
  if (!resp || resp->status != 200) return "";
  return resp->body;
}

}  // namespace llmfi::bench
