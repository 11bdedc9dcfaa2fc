#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace llmfi::bench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"throughput_per_s", "1/s"},
      {"latency_ms_p50", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    const auto add = [&d](std::string name, const char* unit) {
      d.push_back({std::move(name), unit});
    };
    add("net.ttft_overhead_ms_p50", "ms");
    add("net.send_lag_ms_p90", "ms");
    add("net.http_requests", "count");
    add("net.sse_events", "count");
    add("serve.queue_wait_ms_p50", "ms");
    add("serve.queue_wait_ms_p90", "ms");
    add("serve.ttft_server_ms_p50", "ms");
    add("serve.ttft_server_ms_p90", "ms");
    add("serve.decode_token_us_p50", "us");
    add("serve.batch_occupancy_mean", "rows");
    add("serve.tick_us_p50", "us");
    add("serve.tick_us_p90", "us");
    add("serve.admit_us_per_prompt_tok", "us");
    for (const char* r : {"rows1", "rows2", "rows4"}) {
      add(std::string("serve.step_us.") + r, "us");
    }
    add("serve.replay_accounted_frac", "ratio");
    for (const char* len : {"len16", "len64", "len128"}) {
      add(std::string("model.prefill_us_per_tok.") + len, "us");
    }
    for (const char* b : {"b1", "b4", "b8"}) {
      for (const char* ctx : {"ctx16", "ctx80", "ctx160"}) {
        add(std::string("model.decode_us_per_row.") + b + "." + ctx, "us");
      }
    }
    add("model.batch_efficiency.b4", "x");
    add("model.batch_efficiency.b8", "x");
    for (const char* shape : {"qkv", "gate_up", "down", "logits"}) {
      for (const char* m : {"m1", "m4", "m128"}) {
        add(std::string("tensor.matmul_bt_us.") + shape + "." + m, "us");
      }
    }
    for (const char* shape : {"qkv", "gate_up", "down", "logits"}) {
      add(std::string("tensor.gflops.") + shape + ".m4", "GFLOP/s");
      add(std::string("tensor.gbytes_per_s.") + shape + ".m4", "GB/s");
    }
    add("nn.kv_fork_ns_per_page", "ns");
    add("nn.kv_append_row_ns", "ns");
    add("nn.page_acquire_release_ns", "ns");
    add("gen.decode_us_per_token", "us");
    add("core.checksum_overhead_frac", "ratio");
    add("core.detect_rate", "ratio");
    add("core.recovery_pass_frac", "ratio");
    add("eval.passes_per_trial", "passes");
    add("eval.prefix_skip_frac", "ratio");
    add("eval.batch_occupancy", "rows");
    add("eval.forked_admissions", "count");
    add("eval.backfills", "count");
    add("eval.faulty_passes", "count");
    add("obs.trace_overhead_frac", "ratio");
    for (const char* span : {"trial", "admission", "decode_step", "attn", "ffn",
                             "prefix_fork_resume", "recovery_rewind"}) {
      add(std::string("obs.self_frac.") + span, "ratio");
    }
    add("client.ttft_ms_p90", "ms");
    add("client.ttft_ms_p95", "ms");
    add("client.ttft_ms_p99", "ms");
    add("client.gap_ms_p50", "ms");
    add("client.gap_ms_p90", "ms");
    add("client.gap_ms_p99", "ms");
    add("client.e2e_ms_p50", "ms");
    add("client.e2e_ms_p99", "ms");
    add("client.ttft_samples", "count");
    add("client.gap_samples", "count");
    return d;
  }();
  return defs;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i > 0 ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

std::unique_ptr<Engine> load_engine() {
  auto e = std::make_unique<Engine>();
  e->model = std::make_unique<model::InferenceModel>(
      e->zoo.get(kModel),
      model::PrecisionConfig::for_dtype(num::DType::BF16));
  return e;
}

}  // namespace llmfi::bench
