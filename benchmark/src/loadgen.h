#pragma once
// Open-loop load generator of the serve workloads, built on
// net::HttpClient: one process, at most 4 threads, each owning one
// keep-alive connection. Request i is due `due_s[i]` seconds after the
// start and its latency counts from that due time, so a stalled server
// shows up as latency rather than as a thinner arrival stream; how late
// the generator sent it (all connections busy, or a late wake-up) is
// recorded as send lag.

#include <cstdint>
#include <string>
#include <vector>

#include "tokenizer/vocab.h"

namespace llmfi::bench {

inline constexpr int kMaxConnections = 4;

struct Prompt {
  std::vector<tok::TokenId> ids;
  int max_new = 16;                  // the request's token budget
  std::vector<tok::TokenId> expect;  // gen::generate oracle tokens
};

struct LoadPlan {
  std::vector<const Prompt*> requests;  // in send order
  std::vector<double> due_s;            // ascending, one per request
  int span_parent = -1;  // Span index the request spans hang under
};

struct RequestSample {
  bool ok = false;  // completed, ended with done, tokens equal the oracle
  bool transport_error = false;
  bool no_done = false;
  bool mismatch = false;
  double end_s = 0.0;        // completion, seconds from the start
  double send_lag_ms = 0.0;  // open loop: send time minus due time
  int tokens = 0;            // streamed tokens
  double ttft_ms = 0.0;      // valid when tokens > 0
  double e2e_ms = 0.0;
  std::vector<double> gaps_ms;  // between consecutive streamed tokens
};

struct LoadResult {
  std::vector<RequestSample> samples;  // one per request sent

  long long failed() const;
  std::vector<double> ttft_ms() const;  // completed requests that streamed
  std::vector<double> gaps_ms() const;
  std::vector<double> e2e_ms() const;
  std::vector<double> send_lag_ms() const;
};

LoadResult run_load(const std::string& host, int port, const LoadPlan& plan);

// One GET over a fresh connection; the body, or "" on any failure or
// non-200 status.
std::string http_get(const std::string& host, int port,
                     const std::string& path);

}  // namespace llmfi::bench
