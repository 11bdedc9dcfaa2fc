#pragma once
// Span recorder of the traced run (benchmark/README.md, "Traced run").
//
// The benchmark wraps every call it makes into a layer's public function
// in a Span: name, start, end, parent span, and the request, trial or
// cell the call serves. Records stay in memory and are written once, at
// exit, as Chrome trace JSON with each span's self time. Recording is
// off by default; a disabled Span still reads the clock, so the untraced
// end-to-end run times exactly the code the traced run records, and the
// difference between the two is the tracing overhead.
//
// The program's own obs tracer (src/obs/trace.h) can run alongside: its
// B/E spans are read back with parse_program_trace and folded into self
// times by name. Nothing under src/ is instrumented for the benchmark.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace llmfi::bench {

// Turns recording on for the rest of the process.
void spans_enable();

class Span {
 public:
  static constexpr int kInherit = -2;

  // `id` names the request, trial or cell served (-1: none). `parent`
  // overrides the calling thread's innermost open span; worker threads
  // pass the index of the span they work for.
  explicit Span(const char* name, std::int64_t id = -1,
                int parent = kInherit);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span (only the first call records) and returns its duration
  // in seconds.
  double stop();
  // Record index for explicit parenting; -1 while recording is off.
  int index() const { return idx_; }

 private:
  Clock::time_point t0_;
  double dur_s_ = -1.0;
  int idx_ = -1;
  int prev_ = -1;
};

// One span of a program trace, with self time = duration minus the time
// its child spans on the same thread cover.
struct ProgramSpan {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  double self_us = 0.0;
  std::int64_t arg = 0;  // the span's "v" argument (rows, request id...)
  int tid = 0;
};

// Reads the B/E events of a Chrome trace written by obs::trace_write_json
// (one event per line) back into spans.
std::vector<ProgramSpan> parse_program_trace(const std::string& json);

struct SelfTime {
  long long count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

// Per-name totals of the benchmark's own spans (self time subtracts the
// union of child intervals, children on other threads included).
std::vector<std::pair<std::string, SelfTime>> span_self_times();
std::vector<std::pair<std::string, SelfTime>> program_self_times(
    const std::vector<ProgramSpan>& spans);
// {"name": {"count": n, "total_us": t, "self_us": s}, ...}
std::string self_time_json(
    const std::vector<std::pair<std::string, SelfTime>>& times);

// Writes the benchmark's spans (pid 1) and each program trace (pid 2, 3,
// ... named by `program[i].first`) as Chrome "X" events carrying
// id/parent/self_us args. Returns false on I/O failure.
bool write_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::vector<ProgramSpan>>>&
        program);

}  // namespace llmfi::bench
