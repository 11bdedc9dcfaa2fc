#pragma once
// Continuous-batching scheduler over one BatchEngine: requests queue up,
// free slots admit greedily, every step() retires finished sequences and
// the freed slots backfill from the queue before the next pass — the
// standard continuous-batching loop (ScaleLLM/vLLM) in its deterministic
// single-threaded form. Completion order is a pure function of the
// request sequence: slots fill lowest-index-first and retire in slot
// order within a pass, so repeated runs are byte-identical.
//
// Two driving modes share the same admission logic:
//   * run()  — batch mode: drain a queue (plus an optional lazy source)
//              to completion. The campaign layer's entry point.
//   * tick() — server mode: admit what fits, run ONE decode pass, and
//              return to the caller, which interleaves ticks with
//              network work (submit/cancel between passes). The net
//              event loop's entry point (DESIGN.md §15).

#include <deque>
#include <functional>
#include <optional>

#include "serve/batch_engine.h"

namespace llmfi::serve {

struct SchedulerStats {
  std::uint64_t submitted = 0;  // submit() calls + source pulls
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;  // cancel() exits (queued or active)
  std::uint64_t backfills = 0;  // admissions after the first decode step
                                // (slots freed mid-run and refilled)
  // fill() rounds that stopped short because the engine's KV page budget
  // (BatchEngine::can_admit) could not cover the next request — the
  // request waited in queue for retiring sequences to release pages.
  // One deferral per fill round, so a request stuck across many decode
  // steps counts once per step it sat out. Always 0 without a page pool.
  std::uint64_t deferred_admissions = 0;
};

class Scheduler {
 public:
  explicit Scheduler(BatchEngine& engine) : engine_(engine) {}

  // Enqueues a request for the next run()/tick() (no admission happens
  // here). Throws std::logic_error after drain() — callers gate new
  // work on draining() and reject it upstream (the server's 503).
  void submit(Request req);

  // Lazy request feed: pulled once per free slot until it returns
  // nullopt (then never again within this run). This is how the campaign
  // layer streams trials from its shared atomic counter without
  // materializing them all up front.
  using Source = std::function<std::optional<Request>()>;

  // Drains the queue and `source` to completion: fill free slots, run
  // one batched decode pass, retire + backfill, repeat until idle.
  // Returns every completion in retirement order (per-request callbacks
  // fire from inside, as documented on Request::on_done).
  std::vector<Completion> run(Source source = nullptr);

  // Server-mode step: backfill free slots from the queue (page-budget
  // gated like run()), then execute one batched decode pass if anything
  // is active. Completions append to `done` (callbacks fire from
  // inside). Returns false when the scheduler is idle — queue empty and
  // no active slot — so the event loop can park until the next submit.
  bool tick(std::vector<Completion>& done);

  // Cancels one request wherever it currently lives. Queued: the
  // request leaves the queue without ever touching the engine and a
  // synthetic Completion (cancelled, no tokens) fires its on_done and
  // appends to `done`; its pending queue-wait stamp is consumed here —
  // observed into the queue-wait histogram and cleared — so no enqueue
  // stamp ever exits the scheduler unconsumed (the admission path is no
  // longer the only stamp sink). Active: forwards to
  // BatchEngine::cancel, which retires the slot immediately and
  // releases its paged KV. Returns false for unknown ids (already
  // completed or never submitted) — the normal race with retirement,
  // not an error.
  bool cancel(std::uint64_t id, std::vector<Completion>& done);

  // Graceful-shutdown latch: after drain() new submit() calls throw,
  // while queued and active requests keep running to completion via
  // tick()/run(). The caller decides when drained (idle() true) means
  // exit. Irreversible for this scheduler's lifetime.
  void drain() { draining_ = true; }
  bool draining() const { return draining_; }

  bool idle() const { return queue_.empty() && engine_.active() == 0; }
  std::size_t queued() const { return queue_.size(); }
  int active() const { return engine_.active(); }
  tn::Index max_prompt_tokens() const { return engine_.max_prompt_tokens(); }

  const SchedulerStats& stats() const { return stats_; }
  const EngineStats& engine_stats() const { return engine_.stats(); }

 private:
  // Shared admission loop: pull from `source` (when non-null) then the
  // queue into free slots until the engine is full, the page budget
  // defers, or both feeds are dry. `count_backfill` marks admissions
  // that land after a decode step already ran.
  void fill(Source* source, bool* source_dry, bool count_backfill,
            std::vector<Completion>& done);

  BatchEngine& engine_;
  std::deque<Request> queue_;
  SchedulerStats stats_;
  bool draining_ = false;
  bool ticked_ = false;  // tick() ran a decode pass (backfill accounting)
};

}  // namespace llmfi::serve
