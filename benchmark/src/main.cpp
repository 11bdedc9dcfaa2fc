// llmfi_bench — one run of one workload of the end-to-end benchmark
// (benchmark/README.md). benchmark/run.sh builds it and calls it:
//
//   llmfi_bench --prepare
//   llmfi_bench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// --prepare trains the model into the zoo cache once. A workload run
// prints every metric as `name workload value unit`, then, as the last
// line of stdout, one JSON object {correct, attempted, failed, metrics};
// the result file in DIR repeats it with provenance. Exit status 1 means
// some output was wrong.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "bench/common.h"
#include "report/bench_meta.h"
#include "spans.h"

using namespace llmfi;
using namespace llmfi::bench;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: llmfi_bench --prepare\n"
               "       llmfi_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR\n"
               "workloads: campaign-batched campaign-detect serve-chat "
               "serve-longctx\n");
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

int prepare() {
  const Clock::time_point t0 = Clock::now();
  eval::Zoo zoo;
  zoo.get(kModel);
  std::printf("prepare_s %.3f s (model %s in %s)\n", seconds_since(t0), kModel,
              zoo.cache_dir().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::require_release_build();
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--prepare") {
      return prepare();
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::stoull(argv[++i]);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::stod(argv[++i]);
      have_seconds = true;
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") {
        usage();
        return 2;
      }
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--out" && has_value) {
      opt.out_dir = argv[++i];
    } else {
      usage();
      return 2;
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opt.out_dir.empty() ||
      !(opt.seconds > 0.0) ||
      !(is_campaign_workload(opt.workload) ||
        is_serve_workload(opt.workload))) {
    usage();
    return 2;
  }

  const Clock::time_point t0 = Clock::now();
  Report r = is_campaign_workload(opt.workload) ? run_campaign_workload(opt)
                                                : run_serve_workload(opt);
  const double wall = seconds_since(t0);

  const auto& defs = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics_json = "{";
  for (const MetricDef& d : defs) {
    const auto it = r.values.find(d.name);
    // An untraced run must measure every end-to-end metric; a traced run
    // leaves layers its workload bypasses at 0.
    if (it == r.values.end() && !opt.trace) {
      r.problem("metric " + d.name + " was not measured");
    }
    const double v = it == r.values.end() ? 0.0 : it->second;
    std::printf("%s %s %s %s\n", d.name.c_str(), opt.workload.c_str(),
                number(v).c_str(), d.unit.c_str());
    if (metrics_json.size() > 1) metrics_json += ", ";
    metrics_json += quoted(d.name) + ": {\"value\": " + number(v) +
                    ", \"unit\": " + quoted(d.unit) + "}";
  }
  metrics_json += "}";
  for (const auto& [name, v] : r.values) {
    bool known = false;
    for (const MetricDef& d : defs) known = known || d.name == name;
    if (!known) r.problem("metric " + name + " is not in the metric table");
  }
  if (opt.trace) {
    r.extra_json.push_back("\"benchmark_self_time\": " +
                           self_time_json(span_self_times()));
    std::printf(
        "# tensor.gflops and tensor.gbytes_per_s are computed from tensor "
        "sizes and measured time, not from hardware counters\n");
  }
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "llmfi_bench: %s: %s\n", opt.workload.c_str(),
                 p.c_str());
  }

  const std::string result =
      std::string("{\"correct\": ") + (r.correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(r.attempted) +
      ", \"failed\": " + std::to_string(r.failed) +
      ", \"metrics\": " + metrics_json + "}";

  const std::string path = opt.out_dir + "/" + opt.workload + ".seed" +
                           std::to_string(opt.seed) + ".trace" +
                           (opt.trace ? "1" : "0") + ".json";
  std::ofstream file(path);
  file << "{\"workload\": " << quoted(opt.workload)
       << ", \"seed\": " << opt.seed << ", \"seconds\": " << number(opt.seconds)
       << ", \"trace\": " << (opt.trace ? "true" : "false")
       << ",\n \"meta\": " << report::bench_metadata(wall).json()
       << ",\n \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu\": " << quoted(cpu_model()) << ",\n \"result\": " << result;
  for (const std::string& extra : r.extra_json) file << ",\n " << extra;
  file << ",\n \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    file << (i > 0 ? ", " : "") << quoted(r.problems[i]);
  }
  file << "]}\n";

  std::printf("%s\n", result.c_str());
  return r.correct() ? 0 : 1;
}
