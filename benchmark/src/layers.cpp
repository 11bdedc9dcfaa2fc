#include "layers.h"

#include <functional>
#include <random>
#include <string>

#include "core/detector.h"
#include "core/injector.h"
#include "eval/runner.h"
#include "gen/generate.h"
#include "nn/kv_page.h"
#include "tensor/ops.h"

namespace llmfi::bench {

namespace {

constexpr int kReps = 15;
volatile float g_sink = 0.0f;  // keeps timed products observable

// Median duration in µs of `reps` calls of `call`, each inside its own
// Span; `setup` runs before each call, outside the span.
double median_us(const char* span, std::int64_t id, int reps,
                 const std::function<void()>& setup,
                 const std::function<void()>& call) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    setup();
    Span s(span, id);
    call();
    us.push_back(s.stop() * 1e6);
  }
  return median(us);
}

// `prompts` laid end to end, cycled to `n` tokens.
std::vector<tok::TokenId> token_stream(
    const std::vector<std::vector<tok::TokenId>>& prompts, std::size_t n) {
  std::vector<tok::TokenId> out;
  for (std::size_t i = 0; out.size() < n; ++i) {
    const auto& p = prompts[i % prompts.size()];
    out.insert(out.end(), p.begin(), p.end());
  }
  out.resize(n);
  return out;
}

tn::Tensor random_tensor(tn::Index rows, tn::Index cols, std::mt19937& rng) {
  std::uniform_real_distribution<float> u(-1.0f, 1.0f);
  std::vector<float> v(static_cast<std::size_t>(rows * cols));
  for (float& x : v) x = u(rng);
  return tn::Tensor::from_rows(rows, cols, std::move(v));
}

void measure_model(model::InferenceModel& m,
                   const std::vector<tok::TokenId>& stream, Report& r) {
  for (const int len : {16, 64, 128}) {
    nn::KvCache cache = m.make_cache();
    const std::span<const tok::TokenId> toks(stream.data(),
                                             static_cast<std::size_t>(len));
    const double us = median_us(
        "model.forward", len, kReps, [&] { cache.reset(); },
        [&] { g_sink = m.forward(toks, cache, 0)[0]; });
    r.set("model.prefill_us_per_tok.len" + std::to_string(len), us / len);
  }

  std::map<std::pair<int, int>, double> per_row;  // (batch, ctx) -> µs
  for (const int ctx : {16, 80, 160}) {
    // Eight caches holding ctx-1 positions; every decode pass appends the
    // ctx-th and is rewound before the next repetition.
    std::vector<nn::KvCache> caches;
    for (int i = 0; i < 8; ++i) {
      caches.push_back(m.make_cache());
      m.forward(std::span(stream.data(), static_cast<std::size_t>(ctx - 1)),
                caches.back(), 0);
    }
    for (const int b : {1, 4, 8}) {
      std::vector<model::InferenceModel::BatchRow> rows(
          static_cast<std::size_t>(b));
      const double us = median_us(
          "model.forward_batch", b, kReps,
          [&] {
            for (int i = 0; i < b; ++i) {
              caches[static_cast<std::size_t>(i)].truncate(ctx - 1);
              rows[static_cast<std::size_t>(i)] = {
                  .cache = &caches[static_cast<std::size_t>(i)],
                  .token = stream[static_cast<std::size_t>(ctx - 1)],
                  .pass_index = 1};
            }
          },
          [&] { g_sink = m.forward_batch(rows)[0]; });
      per_row[{b, ctx}] = us / b;
      r.set("model.decode_us_per_row.b" + std::to_string(b) + ".ctx" +
                std::to_string(ctx),
            us / b);
    }
  }
  // B * t(1) / t(B) at ctx 80 is t_row(1) / t_row(B).
  for (const int b : {4, 8}) {
    r.set("model.batch_efficiency.b" + std::to_string(b),
          per_row[{1, 80}] / per_row[{b, 80}]);
  }
}

void measure_tensor(const model::ModelConfig& mc, Report& r) {
  struct Shape {
    const char* name;
    tn::Index n, k;  // weight [n, k]: n outputs over k inputs
  };
  // One projection of each kind the engine runs per block, plus the LM
  // head: q/k/v are d x d each, gate/up d_ff x d each, down d x d_ff.
  const Shape shapes[] = {{"qkv", mc.d_model, mc.d_model},
                          {"gate_up", mc.d_ff, mc.d_model},
                          {"down", mc.d_model, mc.d_ff},
                          {"logits", mc.vocab_size, mc.d_model}};
  std::mt19937 rng(7);
  for (const Shape& s : shapes) {
    const tn::Tensor w = random_tensor(s.n, s.k, rng);
    for (const tn::Index m : {1, 4, 128}) {
      const tn::Tensor a = random_tensor(m, s.k, rng);
      const double us =
          median_us("tensor.matmul_bt", m, m == 128 ? 21 : 201, [] {},
                    [&] { g_sink = tn::matmul_bt(a, w)[0]; });
      const std::string tag = std::string(s.name) + ".m" + std::to_string(m);
      r.set("tensor.matmul_bt_us." + tag, us);
      if (m == 4) {
        // Operation count and bytes moved follow from the tensor sizes.
        const double flops = 2.0 * m * s.n * s.k;
        const double bytes = 4.0 * (m * s.k + s.n * s.k + m * s.n);
        r.set("tensor.gflops." + tag, flops / (us * 1e3));
        r.set("tensor.gbytes_per_s." + tag, bytes / (us * 1e3));
      }
    }
  }
}

void measure_kv(model::InferenceModel& m,
                const std::vector<tok::TokenId>& stream, Report& r) {
  const auto& mc = m.config();
  const auto pool = std::make_shared<nn::PagePool>(
      256, nn::PagePool::kDefaultPageRows, mc.d_model);

  // Fork of a 144-row prefix: 9 full pages per block, aliased, no copy.
  nn::KvCache src = m.make_cache(pool);
  m.forward(std::span(stream.data(), 150), src, 0);
  nn::KvCache dst = m.make_cache(pool);
  const tn::Index prefix = 9 * nn::PagePool::kDefaultPageRows;
  const double fork_us =
      median_us("nn.kv_fork", prefix, 201, [&] { dst.reset(); },
                [&] { dst.fork_from(src, prefix); });
  r.set("nn.kv_fork_ns_per_page", fork_us * 1e3 / dst.pages_held());

  // One span covers a whole cache fill: a per-row span would cost as much
  // as the append it times.
  nn::KvCache c = m.make_cache(pool);
  const std::vector<float> row(static_cast<std::size_t>(mc.d_model), 0.5f);
  const int rows = mc.max_seq * mc.n_layers;
  const double fill_us = median_us(
      "nn.kv_append_rows", rows, kReps, [&] { c.reset(); },
      [&] {
        for (int pos = 0; pos < mc.max_seq; ++pos) {
          for (int b = 0; b < mc.n_layers; ++b) c.append_row(b, row, row);
          c.advance(1);
        }
      });
  r.set("nn.kv_append_row_ns", fill_us * 1e3 / rows);

  constexpr int kPairs = 20000;
  const double pair_us = median_us(
      "nn.page_acquire_release", kPairs, kReps, [] {},
      [&] {
        for (int i = 0; i < kPairs; ++i) pool->release(pool->acquire());
      });
  r.set("nn.page_acquire_release_ns", pair_us * 1e3 / kPairs);
}

void measure_gen_and_checksum(
    Engine& e, const std::vector<std::vector<tok::TokenId>>& prompts,
    Report& r) {
  model::InferenceModel& m = *e.model;
  gen::GenerationConfig cfg;
  cfg.max_new_tokens = 32;

  std::vector<std::string> texts;
  for (const auto& ex : e.zoo.task(data::TaskKind::MathGsm).eval) {
    if (texts.size() == 8) break;
    texts.push_back(ex.prompt);
  }
  core::ChecksumProfile profile;
  {
    Span s("core.profile_checksums");
    profile = core::profile_checksums(m, e.zoo.vocab(), texts);
  }
  core::ChecksumDetector det(profile);

  // Plain and detect-only generation interleaved, so drift hits both.
  double plain_s = 0.0, checked_s = 0.0;
  long long passes = 0;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < prompts.size(); ++i) {
      {
        Span s("gen.generate", static_cast<std::int64_t>(i));
        passes += gen::generate(m, prompts[i], cfg).passes;
        plain_s += s.stop();
      }
      core::LinearHookGuard guard(m, &det);
      gen::GenerationConfig checked = cfg;
      checked.detector = &det;
      Span s("core.checksum_generate", static_cast<std::int64_t>(i));
      gen::generate(m, prompts[i], checked);
      checked_s += s.stop();
    }
  }
  r.set("gen.decode_us_per_token", plain_s * 1e6 / static_cast<double>(passes));
  r.set("core.checksum_overhead_frac", checked_s / plain_s - 1.0);
}

}  // namespace

void measure_layers(Engine& e, Report& r) {
  model::InferenceModel& m = *e.model;
  std::vector<std::vector<tok::TokenId>> prompts;
  for (const auto& ex : e.zoo.task(data::TaskKind::MathGsm).eval) {
    if (prompts.size() == 16) break;
    prompts.push_back(eval::build_prompt(e.zoo.vocab(), ex, false));
  }
  const auto stream = token_stream(
      prompts, static_cast<std::size_t>(m.config().max_seq));
  measure_model(m, stream, r);
  measure_tensor(m.config(), r);
  measure_kv(m, stream, r);
  measure_gen_and_checksum(e, prompts, r);
}

void add_self_fracs(const std::vector<ProgramSpan>& spans, Report& r) {
  double total = 0.0;
  std::map<std::string, double> self;
  for (const ProgramSpan& s : spans) {
    total += s.self_us;
    self[s.name] += s.self_us;
  }
  for (const char* name : {"trial", "admission", "decode_step", "attn", "ffn",
                           "prefix_fork_resume", "recovery_rewind"}) {
    r.set(std::string("obs.self_frac.") + name,
          total > 0.0 ? self[name] / total : 0.0);
  }
}

void add_step_times(const std::vector<ProgramSpan>& spans, Report& r) {
  for (const int rows : {1, 2, 4}) {
    std::vector<double> us;
    for (const ProgramSpan& s : spans) {
      if (s.name == "decode_step" && s.arg == rows) us.push_back(s.dur_us);
    }
    r.set("serve.step_us.rows" + std::to_string(rows), median(us));
  }
}

}  // namespace llmfi::bench
