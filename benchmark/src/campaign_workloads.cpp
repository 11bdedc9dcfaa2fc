// Campaign workloads: the study's fault-injection loop, driven through
// eval::run_campaign_on in fixed-size cells (one cell = one campaign of
// `cell_trials` trials with its own seed) until the measured window is
// spent. Per-cell seeds derive from the run seed, so a given seed always
// replays the same trials.

#include <sstream>

#include "bench.h"
#include "eval/campaign.h"
#include "eval/workloads.h"
#include "layers.h"
#include "obs/trace.h"
#include "spans.h"

namespace llmfi::bench {

namespace {

struct CampaignWorkload {
  const char* name;
  core::FaultModel fault;
  bool detect;  // checksum detector with recovery
  int threads;
  int batch;
  int kv_pages;
  int cell_trials;
};

// campaign-batched: 1bit-comp trials decode as forward_batch rows over
// prefix-forked paged KV (tensor, model decode, BatchEngine, nn paging,
// the eval worker pool). campaign-detect: 2bits-mem with checksum
// detection and recovery runs single-row hooked forwards inside
// gen::generate with rewinds and weight rescreens; batching, forking,
// the worker pool and net are bypassed and core detector cost dominates.
// It runs one worker: with two, its throughput ranged over 16% across six
// seeds against 3% with one.
constexpr CampaignWorkload kWorkloads[] = {
    {"campaign-batched", core::FaultModel::Comp1Bit, false, 2, 4, 4096, 500},
    {"campaign-detect", core::FaultModel::Mem2Bit, true, 1, 1, 0, 100},
};
constexpr int kInputs = 8;
constexpr int kCheckTrials = 400;
constexpr int kTracedCells = 2;
constexpr int kSetupRepeats = 9;

const CampaignWorkload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Cell c of run seed s: measured cells count up from 0, warm-up cells
// from 500000, the correctness check is 999999.
std::uint64_t cell_seed(std::uint64_t seed, int cell) {
  return seed * 1000000ull + static_cast<std::uint64_t>(cell);
}
constexpr int kWarmupCell = 500000;
constexpr int kCheckCell = 999999;

eval::CampaignConfig workload_config(const CampaignWorkload& w, int trials,
                                     std::uint64_t seed) {
  eval::CampaignConfig cfg;
  cfg.fault = w.fault;
  cfg.trials = trials;
  cfg.n_inputs = kInputs;
  cfg.seed = seed;
  cfg.threads = w.threads;
  cfg.batch = w.batch;
  cfg.kv_pages = w.kv_pages;
  cfg.prefix_fork = true;
  cfg.detection.checksum = w.detect;
  cfg.detection.recover = w.detect;
  return cfg;
}

// The configuration every other one must reproduce byte for byte.
eval::CampaignConfig oracle_config(const CampaignWorkload& w, int trials,
                                   std::uint64_t seed) {
  eval::CampaignConfig cfg = workload_config(w, trials, seed);
  cfg.threads = 1;
  cfg.batch = 1;
  cfg.prefix_fork = false;
  cfg.kv_pages = 0;
  return cfg;
}

// Every deterministic field of a CampaignResult, as one line.
std::string tallies(const eval::CampaignResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << "masked=" << r.masked << " subtle=" << r.sdc_subtle
     << " distorted=" << r.sdc_distorted
     << " recovered=" << r.detected_recovered
     << " unrecovered=" << r.detected_unrecovered
     << " detected=" << r.trials_detected
     << " faulty_passes=" << r.faulty_passes
     << " recovery_passes=" << r.recovery_passes
     << " false_positives=" << r.baseline_false_positives;
  for (const auto& [bit, counts] : r.by_highest_bit) {
    os << " bit" << bit << "=" << counts[0] << "/" << counts[1] << "/"
       << counts[2] << "/" << counts[3] << "/" << counts[4];
  }
  for (const auto& [name, acc] : r.faulty_metrics) {
    os << " " << name << "=" << acc.n() << ":" << acc.mean();
  }
  for (const auto& [name, acc] : r.baseline_metrics) {
    os << " base_" << name << "=" << acc.n() << ":" << acc.mean();
  }
  for (const auto& [name, hits] : r.faulty_hits) {
    os << " hits_" << name << "=" << hits;
  }
  return os.str();
}

struct Cell {
  double wall_s = 0.0;
  eval::CampaignResult result;
};

class Runner {
 public:
  Runner(const CampaignWorkload& w, Engine& e)
      : w_(w),
        e_(e),
        spec_(eval::workload("gsm8k-syn")),
        eval_set_(e.zoo.task(spec_.kind).eval) {}

  Cell run(const eval::CampaignConfig& cfg, std::int64_t id) {
    Span s("eval.run_campaign_on", id);
    Cell c;
    c.result = eval::run_campaign_on(*e_.model, e_.zoo.vocab(), eval_set_,
                                     spec_, cfg);
    c.wall_s = s.stop();
    return c;
  }

  Cell cell(std::uint64_t seed, int c) {
    return run(workload_config(w_, w_.cell_trials, cell_seed(seed, c)), c);
  }

  // The 400-trial identity check: the workload's configuration must give
  // tallies byte-identical to the sequential contiguous oracle.
  void check(std::uint64_t seed, Report& r) {
    const std::uint64_t s = cell_seed(seed, kCheckCell);
    const std::string got =
        tallies(run(workload_config(w_, kCheckTrials, s), kCheckCell).result);
    const std::string want =
        tallies(run(oracle_config(w_, kCheckTrials, s), kCheckCell).result);
    r.attempted += 2 * kCheckTrials;
    if (got != want) {
      r.failed += kCheckTrials;
      r.problem("campaign tallies differ from the oracle configuration:\n  " +
                got + "\n  " + want);
    }
    r.extra_json.push_back("\"check_tallies\": \"" + got + "\"");
  }

  // A cell whose outcome tally does not add up to its trial count failed.
  void count(const Cell& c, Report& r) const {
    r.attempted += w_.cell_trials;
    if (c.result.trials() != w_.cell_trials || c.result.faulty_passes <= 0) {
      r.failed += w_.cell_trials;
      r.problem("cell tally covers " + std::to_string(c.result.trials()) +
                " of " + std::to_string(w_.cell_trials) + " trials");
    }
  }

 private:
  const CampaignWorkload& w_;
  Engine& e_;
  const eval::WorkloadSpec& spec_;
  const std::vector<data::Example>& eval_set_;
};

// Set-up as a campaign user pays it: open the zoo, load the weights,
// build the engine, and run a trials=0 campaign (baselines, detector
// profiles, prefix snapshots). Repeated; the median is reported.
std::unique_ptr<Engine> set_up(const CampaignWorkload& w, std::uint64_t seed,
                               int repeats, std::vector<double>* secs) {
  std::unique_ptr<Engine> e;
  for (int i = 0; i < repeats; ++i) {
    e.reset();
    Span s("eval.setup", i);
    e = load_engine();
    Runner(w, *e).run(workload_config(w, 0, cell_seed(seed, 0)), -1);
    secs->push_back(s.stop());
  }
  return e;
}

void warm_up(Runner& run, std::uint64_t seed, double seconds) {
  const Clock::time_point t0 = Clock::now();
  for (int c = kWarmupCell; c == kWarmupCell || seconds_since(t0) < seconds;
       ++c) {
    run.cell(seed, c);
  }
}

}  // namespace

bool is_campaign_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

Report run_campaign_workload(const Options& opt) {
  const CampaignWorkload& w = *find_workload(opt.workload);
  Report r;
  std::vector<double> setup_s;
  auto engine = set_up(w, opt.seed, opt.trace ? 1 : kSetupRepeats, &setup_s);
  Runner run(w, *engine);
  run.check(opt.seed, r);
  warm_up(run, opt.seed, 0.1 * opt.seconds);

  if (!opt.trace) {
    // Per-cell figures, reduced by median: a slow phase of the shared
    // host shifts only the cells it overlaps.
    std::vector<double> cell_ms, rate;
    const Clock::time_point t0 = Clock::now();
    for (int c = 0; c == 0 || seconds_since(t0) < opt.seconds; ++c) {
      const Cell cell = run.cell(opt.seed, c);
      run.count(cell, r);
      cell_ms.push_back(cell.wall_s * 1e3);
      rate.push_back(cell.result.trials() / cell.wall_s);
    }
    r.set("setup_s", median(setup_s));
    r.set("throughput_per_s", median(rate));
    r.set("latency_ms_p50", median(cell_ms));
    r.set("peak_rss_mb", peak_rss_mb());
    r.extra_json.push_back("\"setup_s\": " + json_array(setup_s));
    r.extra_json.push_back("\"cell_ms\": " + json_array(cell_ms));
    return r;
  }

  // Traced run: the first cells untraced, then the same cells again with
  // the benchmark's spans and the program's obs tracer on; equal seeds
  // mean equal work, so the time ratio is the tracing overhead.
  std::vector<double> plain_s;
  const Clock::time_point t0 = Clock::now();
  for (int c = 0; c < kTracedCells || seconds_since(t0) < 0.5 * opt.seconds;
       ++c) {
    const Cell cell = run.cell(opt.seed, c);
    run.count(cell, r);
    if (c < kTracedCells) plain_s.push_back(cell.wall_s);
  }
  spans_enable();
  obs::trace_start();
  std::vector<Cell> traced;
  for (int c = 0; c < kTracedCells; ++c) {
    traced.push_back(run.cell(opt.seed, c));
    run.count(traced.back(), r);
  }
  obs::trace_stop();
  const std::vector<ProgramSpan> program =
      parse_program_trace(obs::trace_json());
  obs::trace_clear();

  double plain = 0.0, with_trace = 0.0;
  long long trials = 0, passes = 0, skipped = 0, recovery = 0, detected = 0;
  std::uint64_t rows = 0, batches = 0, forked = 0, backfills = 0;
  for (std::size_t c = 0; c < traced.size(); ++c) {
    const eval::CampaignResult& res = traced[c].result;
    plain += plain_s[c];
    with_trace += traced[c].wall_s;
    trials += res.trials();
    passes += res.faulty_passes;
    skipped += res.prefix_skipped_passes;
    recovery += res.recovery_passes;
    detected += res.trials_detected;
    rows += res.serve_stats.decode_rows;
    batches += res.serve_stats.decode_batches;
    forked += res.serve_stats.forked_admissions;
    backfills += res.serve_stats.backfills;
  }
  const auto frac = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  r.set("obs.trace_overhead_frac", with_trace / plain - 1.0);
  r.set("eval.passes_per_trial", frac(passes, trials));
  r.set("eval.prefix_skip_frac", frac(skipped, passes));
  r.set("eval.batch_occupancy", frac(rows, batches));
  r.set("eval.forked_admissions", static_cast<double>(forked));
  r.set("eval.backfills", static_cast<double>(backfills));
  r.set("eval.faulty_passes", static_cast<double>(passes));
  r.set("core.detect_rate", frac(detected, trials));
  r.set("core.recovery_pass_frac", frac(recovery, passes));
  add_self_fracs(program, r);
  add_step_times(program, r);
  measure_layers(*engine, r);

  r.extra_json.push_back("\"program_self_time\": " +
                         self_time_json(program_self_times(program)));
  const std::string path = opt.out_dir + "/" + opt.workload + ".seed" +
                           std::to_string(opt.seed) + ".trace.json";
  if (!write_trace(path, {{"llmfi in-process obs spans", program}})) {
    r.problem("cannot write " + path);
  }
  return r;
}

}  // namespace llmfi::bench
