// Tests for decoding: greedy determinism, beam-search properties, and
// multiple-choice option scoring.

#include <gtest/gtest.h>

#include "gen/generate.h"
#include "tensor/ops.h"
#include "model/transformer.h"

namespace llmfi {
namespace {

model::ModelConfig tiny_config() {
  model::ModelConfig cfg;
  cfg.vocab_size = 24;
  cfg.d_model = 16;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 24;
  cfg.max_seq = 48;
  cfg.seed = 55;
  return cfg;
}

model::InferenceModel make_engine() {
  return model::InferenceModel(model::ModelWeights::init(tiny_config()), {});
}

std::vector<tok::TokenId> tokens(std::initializer_list<int> ids) {
  std::vector<tok::TokenId> out;
  for (int i : ids) out.push_back(static_cast<tok::TokenId>(i));
  return out;
}

// With all-zero weights every logit is 0, so every token's log-prob ties
// exactly and decoding is driven purely by the tie-break. The fixed rule
// is HF's: highest log-prob first, lowest token id on ties — so beam
// search must emit token 0 forever. Before the fix, std::pair ordering
// under std::greater<> broke ties by *descending* token id and the
// candidate std::sort tie order was unspecified.
TEST(Generate, BeamSearchBreaksTiesByLowestTokenId) {
  auto weights = model::ModelWeights::init(tiny_config());
  weights.for_each_param(
      [](const std::string&, tn::Tensor& t) { t.zero(); });
  model::InferenceModel m(weights, {});
  gen::GenerationConfig cfg;
  cfg.num_beams = 3;
  cfg.max_new_tokens = 4;
  cfg.eos = 1000;  // unreachable: no beam finishes early
  const auto r = gen::generate(m, tokens({1, 4, 7}), cfg);
  EXPECT_EQ(r.tokens, tokens({0, 0, 0, 0}));
  EXPECT_TRUE(r.hit_max_tokens);

  // And the tie-break is stable across repeated runs.
  const auto again = gen::generate(m, tokens({1, 4, 7}), cfg);
  EXPECT_EQ(r.tokens, again.tokens);
}

TEST(Generate, GreedyIsDeterministic) {
  auto m = make_engine();
  gen::GenerationConfig cfg;
  cfg.max_new_tokens = 12;
  const auto prompt = tokens({1, 4, 7});
  auto a = gen::generate(m, prompt, cfg);
  auto b = gen::generate(m, prompt, cfg);
  EXPECT_EQ(a.tokens, b.tokens);
  EXPECT_EQ(a.passes, b.passes);
}

TEST(Generate, RespectsMaxNewTokens) {
  auto m = make_engine();
  gen::GenerationConfig cfg;
  cfg.max_new_tokens = 5;
  auto r = gen::generate(m, tokens({1, 4, 7}), cfg);
  EXPECT_LE(r.tokens.size(), 5u);
  if (r.tokens.size() == 5u) {
    EXPECT_TRUE(r.hit_max_tokens);
  }
  EXPECT_GE(r.passes, 1);
  EXPECT_LE(r.passes, 5);
}

TEST(Generate, GeneratedTokensAreNeverEos) {
  auto m = make_engine();
  gen::GenerationConfig cfg;
  cfg.max_new_tokens = 16;
  auto r = gen::generate(m, tokens({1, 9}), cfg);
  for (auto t : r.tokens) EXPECT_NE(t, cfg.eos);
}

TEST(Generate, ValidatesArguments) {
  auto m = make_engine();
  gen::GenerationConfig cfg;
  EXPECT_THROW(gen::generate(m, {}, cfg), std::invalid_argument);
  cfg.num_beams = 0;
  EXPECT_THROW(gen::generate(m, tokens({1}), cfg), std::invalid_argument);
}

TEST(Generate, BeamSearchNeverWorseCumulativeLogprobThanGreedy) {
  // The greedy path is one of the candidate paths of beam search, so the
  // chosen beam's sequence must have cumulative logprob >= greedy's.
  auto m = make_engine();
  gen::GenerationConfig greedy_cfg;
  greedy_cfg.max_new_tokens = 8;
  auto greedy = gen::generate(m, tokens({1, 4, 7}), greedy_cfg);

  gen::GenerationConfig beam_cfg = greedy_cfg;
  beam_cfg.num_beams = 4;
  auto beam = gen::generate(m, tokens({1, 4, 7}), beam_cfg);

  // Score both sequences by re-running the model.
  auto score = [&m](std::span<const tok::TokenId> prompt,
                    const std::vector<tok::TokenId>& cont) {
    double total = 0.0;
    auto cache = m.make_cache();
    std::vector<tok::TokenId> all(prompt.begin(), prompt.end());
    all.insert(all.end(), cont.begin(), cont.end());
    if (cont.empty()) return 0.0;
    auto logits = m.forward(all, cache, 0);
    for (size_t i = prompt.size(); i < all.size(); ++i) {
      const auto pos = static_cast<tn::Index>(i - 1);
      const float lse = tn::logsumexp_row(logits, pos);
      total += logits.at(pos, all[i]) - lse;
    }
    return total;
  };
  const auto prompt = tokens({1, 4, 7});
  const double gs = score(prompt, greedy.tokens);
  const double bs = score(prompt, beam.tokens);
  EXPECT_GE(bs, gs - 1e-3);
}

TEST(Generate, MoreBeamsNeverLowerChosenScore) {
  auto m = make_engine();
  const auto prompt = tokens({2, 6, 3});
  double prev = -1e300;
  for (int beams : {1, 2, 4}) {
    gen::GenerationConfig cfg;
    cfg.max_new_tokens = 6;
    cfg.num_beams = beams;
    auto r = gen::generate(m, prompt, cfg);
    // Re-score (same procedure as above, but inline).
    auto cache = m.make_cache();
    std::vector<tok::TokenId> all(prompt.begin(), prompt.end());
    all.insert(all.end(), r.tokens.begin(), r.tokens.end());
    if (r.tokens.empty()) continue;
    auto logits = m.forward(all, cache, 0);
    double total = 0.0;
    for (size_t i = prompt.size(); i < all.size(); ++i) {
      const auto pos = static_cast<tn::Index>(i - 1);
      total += logits.at(pos, all[i]) - tn::logsumexp_row(logits, pos);
    }
    EXPECT_GE(total, prev - 1e-3) << "beams=" << beams;
    prev = total;
  }
}

TEST(ScoreOptions, PrefersHighLikelihoodContinuation) {
  // Use the model itself to produce a "likely" continuation via greedy
  // decoding, then verify score_options ranks it above random options.
  auto m = make_engine();
  const auto prompt = tokens({1, 4, 7});
  gen::GenerationConfig cfg;
  cfg.max_new_tokens = 3;
  auto greedy = gen::generate(m, prompt, cfg);
  if (greedy.tokens.size() < 2) GTEST_SKIP() << "model ended immediately";
  std::vector<tok::TokenId> likely(greedy.tokens.begin(),
                                   greedy.tokens.begin() + 2);
  const std::vector<std::vector<tok::TokenId>> options = {
      tokens({20, 21}), likely, tokens({5, 11})};
  auto mc = gen::score_options(m, prompt, options);
  EXPECT_EQ(mc.chosen, 1);
  EXPECT_EQ(mc.passes, 3);
  EXPECT_EQ(mc.scores.size(), 3u);
  EXPECT_GT(mc.scores[1], mc.scores[0]);
  EXPECT_GT(mc.scores[1], mc.scores[2]);
}

TEST(ScoreOptions, ValidatesArguments) {
  auto m = make_engine();
  const auto prompt = tokens({1});
  EXPECT_THROW(gen::score_options(m, prompt, {}), std::invalid_argument);
  EXPECT_THROW(gen::score_options(m, prompt, {{}}), std::invalid_argument);
}

TEST(ScoreOptions, DeterministicAcrossCalls) {
  auto m = make_engine();
  const auto prompt = tokens({3, 8});
  const std::vector<std::vector<tok::TokenId>> options = {tokens({4}),
                                                          tokens({5})};
  auto a = gen::score_options(m, prompt, options);
  auto b = gen::score_options(m, prompt, options);
  EXPECT_EQ(a.chosen, b.chosen);
  EXPECT_DOUBLE_EQ(a.scores[0], b.scores[0]);
}

}  // namespace
}  // namespace llmfi
