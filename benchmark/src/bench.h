#pragma once
// Shared plumbing of the end-to-end benchmark (benchmark/README.md):
// run options, the metric report every workload fills, order statistics,
// and the qilin engine the in-process layers run on.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/model_zoo.h"
#include "model/transformer.h"

namespace llmfi::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured window
  bool trace = false;     // per-layer run instead of the end-to-end one
  std::string out_dir;    // result JSON, Chrome trace, server logs
};

// Every metric the benchmark reports, with its unit: the end-to-end set
// of an untraced run and the per-layer set of a traced one
// (BENCHMARK.json lists the same names).
struct MetricDef {
  std::string name;
  std::string unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

// What one workload run produced. `attempted`/`failed` count operations
// (campaign trials or HTTP requests); `problems` lists every correctness
// failure, so `correct()` is false exactly when it is non-empty. A
// traced run leaves the metrics of layers its workload never enters
// unset; they read 0.
struct Report {
  std::map<std::string, double> values;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> problems;
  // Extra members of the result file (deterministic tallies, self
  // times); each entry is `"key": <json value>`.
  std::vector<std::string> extra_json;

  void set(const std::string& name, double value) { values[name] = value; }
  void problem(std::string what) { problems.push_back(std::move(what)); }
  bool correct() const { return problems.empty(); }
};

// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

// "[v0, v1, ...]" for the result file.
std::string json_array(const std::vector<double>& v);

// Peak resident set (VmHWM) of `pid` in MB; pid 0 means this process.
double peak_rss_mb(pid_t pid = 0);

// The model every workload serves: qilin in bf16 from the pinned zoo
// cache (benchmark/run.sh --prepare trains it once).
inline constexpr const char* kModel = "qilin";

struct Engine {
  eval::Zoo zoo;
  std::unique_ptr<model::InferenceModel> model;
};
std::unique_ptr<Engine> load_engine();

// Workload entry points (campaign_workloads.cpp, serve_workloads.cpp).
bool is_campaign_workload(const std::string& name);
bool is_serve_workload(const std::string& name);
Report run_campaign_workload(const Options& opt);
Report run_serve_workload(const Options& opt);

}  // namespace llmfi::bench
