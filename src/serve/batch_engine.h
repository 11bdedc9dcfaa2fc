#pragma once
// Batched greedy decoding over one InferenceModel: up to `max_batch`
// sequences advance one token per step() through a single
// forward_batch() pass. Each active sequence owns a slot with its own
// KV cache and optional per-request fault hook, so every token it emits
// is bit-identical to a single-sequence gen::generate() greedy run of
// the same request — batching changes wall-clock, never outputs
// (DESIGN.md §10).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gen/generate.h"
#include "model/transformer.h"
#include "obs/context.h"

namespace llmfi::serve {

// Terminal state of one request, delivered via Request::on_done and the
// `done` out-params. Field semantics match gen::GenerationResult so the
// campaign layer can reuse its classification path unchanged.
struct Completion {
  std::uint64_t id = 0;
  std::vector<tok::TokenId> tokens;  // generated tokens (prompt excluded)
  int passes = 0;                    // forward passes, skipped included
  int skipped_passes = 0;            // seeded via prefix-fork admission
  bool hit_max_tokens = false;
  bool nonfinite_logits = false;
  // Retired via cancel() (client disconnect, shutdown) rather than
  // EOS / budget: `tokens` holds whatever was decoded before the cut.
  bool cancelled = false;
};

struct Request {
  std::uint64_t id = 0;
  std::vector<tok::TokenId> prompt;
  int max_new_tokens = 40;
  tok::TokenId eos = 2;
  // Per-request fault hook (e.g. a ComputationalFaultInjector): fired
  // only on this request's rows — during the admission pass via
  // LinearHookGuard, during batched decode via BatchRow::hook — with
  // this request's own pass indices. Caller owns the lifetime; it must
  // outlive the request's completion.
  nn::LinearHook* hook = nullptr;
  // Prefix-fork admission (DESIGN.md §9): when set with start_pass >= 1
  // and every gen::check_greedy_resume precondition holds, admission
  // forks the snapshot's KV prefix and the request joins the batch at
  // pass start_pass; otherwise it falls back to a full prefill with the
  // shared one-time warning. Skipped passes count in Completion::passes.
  const gen::PrefixSnapshot* resume = nullptr;
  int start_pass = 0;
  // Streaming callback, fired once per *newly decoded* accepted token
  // (index counts from 0) — the serve front-end turns these into SSE
  // events. Tokens seeded by a prefix-fork admission replay baseline
  // output and do not fire; live serving never forks, so a network
  // client sees every token. Observation-only: firing order and token
  // values are identical whether or not the callback is set.
  std::function<void(std::uint64_t id, int index, tok::TokenId tok)> on_token;
  // Invoked exactly once, when the request retires (from admit() if it
  // completes immediately, else from step() / cancel()).
  std::function<void(const Completion&)> on_done;
  // Steady-clock enqueue stamp (µs), set by Scheduler::submit / source
  // pulls only while obs metrics are enabled; feeds the queue-wait
  // histogram. Never read by the decode path, so it cannot perturb
  // outputs. -1 = unstamped.
  std::int64_t enqueue_us = -1;
  // Observability identity (DESIGN.md §16): pushed as the current
  // obs::RequestContext for the request's admission pass, decode rows,
  // and retirement, so trace spans, flight-recorder events, and SLO
  // samples attribute to this request. Never read by the decode path —
  // outputs are identical with or without a context.
  obs::RequestContext ctx;
};

struct EngineStats {
  std::uint64_t admitted = 0;
  std::uint64_t forked_admissions = 0;  // admissions that forked a prefix
  std::uint64_t admission_passes = 0;   // prefill / fork catch-up passes
  std::uint64_t decode_batches = 0;     // forward_batch() calls
  std::uint64_t decode_rows = 0;        // rows summed over those calls
  std::uint64_t completed = 0;  // EOS / budget retirements (not cancels)
  std::uint64_t cancelled = 0;  // cancel() retirements
  std::uint64_t generated_tokens = 0;
  int max_active = 0;  // peak concurrently-active slots
};

class BatchEngine {
 public:
  // The engine reference must outlive this object. While requests are in
  // flight the BatchEngine owns the engine's linear-hook slot and
  // nonfinite-diagnostics latch (admission passes scope per-request
  // hooks with LinearHookGuard and reset diagnostics around the pass);
  // callers must not install their own concurrently.
  BatchEngine(model::InferenceModel& m, int max_batch);
  // Paged slots: every slot cache draws rows from `pool` (DESIGN.md §12),
  // so forked admissions alias the snapshot's prefix pages instead of
  // copying them. Outputs stay bit-identical to the contiguous layout;
  // only the admission budget (can_admit) changes.
  BatchEngine(model::InferenceModel& m, int max_batch,
              std::shared_ptr<nn::PagePool> pool);

  int capacity() const { return static_cast<int>(slots_.size()); }
  int active() const { return active_; }

  // True when admitting `req` now cannot exhaust the page pool: a free
  // slot exists and the free pages cover the request's worst-case page
  // count (every block paged out to min(max_seq, prompt +
  // max_new_tokens) rows) on top of what every active row may still
  // claim as it decodes (its worst case minus the pages it holds).
  // Deliberately conservative — prefix forks that would alias most of
  // those pages still reserve the full count — so a true return is a
  // guarantee, not an estimate. Always true on a free slot for
  // contiguous (non-pooled) engines.
  bool can_admit(const Request& req) const;

  // Longest prompt a slot's KV cache can hold (its max_seq); admitting a
  // longer one throws from the prefill's KvCache::append.
  tn::Index max_prompt_tokens() const;

  // Admits one request into a free slot (throws std::runtime_error when
  // full) and runs its admission pass — prefill pass 0, or the forked
  // pass start_pass. A request that terminates immediately (EOS as its
  // first decoded token, zero token budget, cache exhausted) retires
  // straight into `done` without ever occupying a decode row.
  void admit(Request req, std::vector<Completion>& done);

  // Runs one batched decode pass over every active slot (ascending slot
  // order) and retires rows that hit EOS or a budget/cache limit,
  // appending their completions to `done` in that same slot order.
  void step(std::vector<Completion>& done);

  // Cancels the active request with this id: the slot retires
  // immediately with Completion::cancelled set (on_done still fires,
  // with the tokens decoded so far) and a paged slot hands its KV pages
  // back to the pool before returning — the client-disconnect path must
  // free budget for queued requests right away, not at the next reuse.
  // Returns false when no active slot carries the id. Must not be
  // called from inside a step() callback (retirement mutates the slot
  // the pass may still reference).
  bool cancel(std::uint64_t id, std::vector<Completion>& done);

  const EngineStats& stats() const { return stats_; }

 private:
  struct Slot {
    nn::KvCache cache;  // constructed once, reset() on reuse. Contiguous
                        // caches keep their allocation for the engine's
                        // whole lifetime (the storage invariant in
                        // kv_cache.h); paged caches instead release every
                        // page on reset()/retire so idle slots never
                        // starve the shared pool.
    bool active = false;
    Request req;
    std::vector<tok::TokenId> tokens;
    tok::TokenId next = 0;  // decoded, not yet accepted (greedy `next`)
    int step_idx = 0;       // greedy loop variable for `next`
    int passes = 0;
    int skipped = 0;
    bool nonfinite = false;

    explicit Slot(nn::KvCache c) : cache(std::move(c)) {}
  };

  // The greedy loop-top on `slot.next`: EOS / token-budget / cache-limit
  // checks and token acceptance, in exactly gen::generate()'s order.
  // Returns false (after retiring the slot into `done`) when the request
  // terminated, true when a decode pass for `next` is pending.
  bool accept_or_retire(Slot& slot, std::vector<Completion>& done);
  void retire(Slot& slot, bool hit_max, std::vector<Completion>& done,
              bool cancelled = false);
  // Pages `req` holds once every block is paged out to min(max_seq,
  // prompt + max_new_tokens) rows. Paged engines only.
  tn::Index worst_case_pages(const Request& req) const;

  model::InferenceModel& model_;
  std::shared_ptr<nn::PagePool> pool_;  // null for contiguous slots
  std::vector<Slot> slots_;
  int active_ = 0;
  EngineStats stats_;
  // Scratch: per-row request contexts for the current decode batch,
  // registered via obs::RowContextGuard so per-row hook events (detector
  // trips, injections) attribute to the right request. Rebuilt alongside
  // `rows` every step; kept as a member only to reuse the allocation.
  std::vector<obs::RequestContext> row_ctxs_;
};

}  // namespace llmfi::serve
