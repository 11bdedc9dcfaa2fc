#include "serve/batch_engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/injector.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace llmfi::serve {

namespace {

// Steady-clock µs for obs latency metrics; only called when metrics are
// enabled, so the disabled path stays clock-free.
std::int64_t steady_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

BatchEngine::BatchEngine(model::InferenceModel& m, int max_batch)
    : model_(m) {
  if (max_batch < 1) {
    throw std::invalid_argument("BatchEngine: max_batch must be >= 1");
  }
  slots_.reserve(static_cast<size_t>(max_batch));
  for (int i = 0; i < max_batch; ++i) slots_.emplace_back(m.make_cache());
}

BatchEngine::BatchEngine(model::InferenceModel& m, int max_batch,
                         std::shared_ptr<nn::PagePool> pool)
    : model_(m), pool_(std::move(pool)) {
  if (max_batch < 1) {
    throw std::invalid_argument("BatchEngine: max_batch must be >= 1");
  }
  slots_.reserve(static_cast<size_t>(max_batch));
  for (int i = 0; i < max_batch; ++i) {
    slots_.emplace_back(pool_ ? m.make_cache(pool_) : m.make_cache());
  }
}

tn::Index BatchEngine::max_prompt_tokens() const {
  return slots_.front().cache.max_seq();
}

tn::Index BatchEngine::worst_case_pages(const Request& req) const {
  const nn::KvCache& probe = slots_.front().cache;
  const tn::Index worst_len = std::min<tn::Index>(
      probe.max_seq(), static_cast<tn::Index>(req.prompt.size()) +
                           static_cast<tn::Index>(std::max(req.max_new_tokens,
                                                           0)));
  return static_cast<tn::Index>(probe.n_blocks()) *
         nn::PagePool::pages_for(worst_len, pool_->page_rows());
}

bool BatchEngine::can_admit(const Request& req) const {
  if (active_ >= capacity()) return false;
  if (!pool_) return true;
  // Active rows keep drawing pages as they decode, so the free pages
  // they may still claim (worst case minus what they hold) are spoken for.
  tn::Index reserved = 0;
  for (const Slot& s : slots_) {
    if (!s.active) continue;
    reserved += std::max<tn::Index>(
        0, worst_case_pages(s.req) - s.cache.pages_held());
  }
  return worst_case_pages(req) + reserved <=
         static_cast<tn::Index>(pool_->free_pages());
}

void BatchEngine::retire(Slot& slot, bool hit_max,
                         std::vector<Completion>& done, bool cancelled) {
  Completion c;
  c.id = slot.req.id;
  c.tokens = std::move(slot.tokens);
  c.passes = slot.passes;
  c.skipped_passes = slot.skipped;
  c.hit_max_tokens = hit_max;
  c.nonfinite_logits = slot.nonfinite;
  c.cancelled = cancelled;
  if (cancelled) {
    ++stats_.cancelled;
  } else {
    ++stats_.completed;
  }
  stats_.generated_tokens += c.tokens.size();
  slot.active = false;
  --active_;
  // Paged slots hand their pages back immediately so a retiring sequence
  // frees budget for the scheduler's next can_admit() check; contiguous
  // slots keep their storage (reset() on reuse is enough and cheaper).
  if (slot.cache.paged()) slot.cache.reset();
  // Retirement (and the on_done callback chain it drives — SSE done
  // events, campaign classification) runs under the request's context so
  // downstream spans/events attribute correctly.
  obs::ContextScope cscope(slot.req.ctx);
  obs::trace_instant("retire", static_cast<std::int64_t>(c.id));
  if (obs::recorder_enabled()) {
    if (cancelled) obs::record_event(obs::RecType::Cancel, c.passes);
    if (c.nonfinite_logits) {
      obs::record_event(obs::RecType::Nonfinite, c.passes);
    }
    obs::record_event(obs::RecType::RequestRetire, c.passes,
                      static_cast<std::int64_t>(c.tokens.size()),
                      cancelled ? 1 : 0);
  }
  if (slot.req.on_done) slot.req.on_done(c);
  done.push_back(std::move(c));
}

bool BatchEngine::accept_or_retire(Slot& slot, std::vector<Completion>& done) {
  // Mirrors gen::generate()'s greedy loop-top for `next` at step_idx,
  // check for check — any divergence here would break the bit-identity
  // contract with the sequential path.
  if (slot.step_idx >= slot.req.max_new_tokens) {
    retire(slot, /*hit_max=*/false, done);  // zero-budget: loop never ran
    return false;
  }
  if (slot.next == slot.req.eos) {
    retire(slot, /*hit_max=*/false, done);
    return false;
  }
  slot.tokens.push_back(slot.next);
  if (slot.req.on_token) {
    slot.req.on_token(slot.req.id,
                      static_cast<int>(slot.tokens.size()) - 1, slot.next);
  }
  if (slot.step_idx + 1 == slot.req.max_new_tokens) {
    retire(slot, /*hit_max=*/true, done);
    return false;
  }
  if (slot.cache.length() + 1 > slot.cache.max_seq()) {
    retire(slot, /*hit_max=*/true, done);
    return false;
  }
  return true;  // decode pass step_idx + 1 on `next` is pending
}

void BatchEngine::admit(Request req, std::vector<Completion>& done) {
  if (active_ >= capacity()) {
    throw std::runtime_error("BatchEngine::admit: no free slot");
  }
  Slot* slot = nullptr;
  for (auto& s : slots_) {
    if (!s.active) {
      slot = &s;
      break;
    }
  }
  slot->active = true;
  ++active_;
  slot->req = std::move(req);
  slot->tokens.clear();
  slot->cache.reset();
  slot->passes = 0;
  slot->skipped = 0;
  slot->nonfinite = false;
  ++stats_.admitted;
  stats_.max_active = std::max(stats_.max_active, active_);

  const gen::PrefixSnapshot* snap = gen::check_greedy_resume(
      slot->req.prompt, slot->req.resume, slot->req.start_pass, slot->cache);

  // The admission pass runs single-sequence on the shared engine, so the
  // request's hook is scoped with the same RAII guard the sequential
  // campaign path uses (on_install() re-arms it), and the engine-level
  // nonfinite latch is isolated into this slot.
  obs::ContextScope cscope(slot->req.ctx);
  obs::TraceScope admit_span("admission",
                             static_cast<std::int64_t>(slot->req.id));
  if (obs::recorder_enabled()) {
    obs::record_event(obs::RecType::RequestAdmit,
                      /*pass=*/snap != nullptr ? slot->req.start_pass : 0,
                      static_cast<std::int64_t>(slot->req.prompt.size()),
                      /*a1=*/snap != nullptr ? 1 : 0);
  }
  const std::int64_t admit_t0 = obs::metrics_enabled() ? steady_us() : 0;
  tn::Tensor logits;
  {
    core::LinearHookGuard guard(model_, slot->req.hook);
    model_.reset_diagnostics();
    if (snap != nullptr) {
      // Forked admission: passes 0..start_pass-1 are bit-identical to
      // the captured baseline — fork the KV prefix, seed its tokens, and
      // make pass start_pass the admission forward.
      const int t = slot->req.start_pass;
      {
        obs::TraceScope fork("prefix_fork_resume", t);
        const tn::Index fork_len =
            snap->cache_len_before_pass[static_cast<size_t>(t)];
        slot->cache.fork_from(*snap->cache, fork_len);
        if (obs::recorder_enabled()) {
          obs::record_event(obs::RecType::KvFork, t,
                            static_cast<std::int64_t>(fork_len));
        }
      }
      slot->tokens.assign(snap->tokens.begin(), snap->tokens.begin() + t);
      slot->passes = t;
      slot->skipped = t;
      const tok::TokenId input = snap->tokens[static_cast<size_t>(t - 1)];
      logits = model_.forward(std::span(&input, 1), slot->cache, t);
      ++slot->passes;
      slot->next = static_cast<tok::TokenId>(tn::argmax_row(logits, 0));
      slot->step_idx = t;
      ++stats_.forked_admissions;
    } else {
      logits = model_.forward(slot->req.prompt, slot->cache, /*pass_index=*/0);
      ++slot->passes;
      slot->next =
          static_cast<tok::TokenId>(tn::argmax_row(logits, logits.rows() - 1));
      slot->step_idx = 0;
    }
    slot->nonfinite = model_.saw_nonfinite_logits();
    model_.reset_diagnostics();
  }
  ++stats_.admission_passes;
  if (obs::metrics_enabled()) {
    const std::int64_t now = steady_us();
    // Time to first token: queue wait (when stamped) + admission pass.
    // Strictly positive stamps only: -1 is the unstamped default and 0
    // is the stale zero-initialized stamp a caller-built Request carries
    // when metrics were off at submit time — observing either would fold
    // a bogus multi-decade "wait" into the histograms.
    const std::int64_t from =
        slot->req.enqueue_us > 0 ? slot->req.enqueue_us : admit_t0;
    obs::observe("serve_ttft_us", obs::latency_us_buckets(),
                 static_cast<double>(now - from));
    obs::SloMonitor::global().record_ttft(
        now, static_cast<double>(now - from) / 1000.0);
    if (slot->req.enqueue_us > 0) {
      obs::observe("serve_queue_wait_us", obs::latency_us_buckets(),
                   static_cast<double>(admit_t0 - slot->req.enqueue_us));
    }
  }
  accept_or_retire(*slot, done);
}

bool BatchEngine::cancel(std::uint64_t id, std::vector<Completion>& done) {
  for (auto& s : slots_) {
    if (s.active && s.req.id == id) {
      retire(s, /*hit_max=*/false, done, /*cancelled=*/true);
      return true;
    }
  }
  return false;
}

void BatchEngine::step(std::vector<Completion>& done) {
  std::vector<Slot*> live;
  std::vector<model::InferenceModel::BatchRow> rows;
  live.reserve(slots_.size());
  rows.reserve(slots_.size());
  row_ctxs_.clear();
  for (auto& s : slots_) {
    if (!s.active) continue;
    live.push_back(&s);
    rows.push_back({.cache = &s.cache,
                    .token = s.next,
                    .pass_index = s.step_idx + 1,
                    .hook = s.req.hook,
                    .nonfinite = false});
    row_ctxs_.push_back(s.req.ctx);
  }
  if (rows.empty()) return;

  obs::TraceScope step_span("decode_step",
                            static_cast<std::int64_t>(rows.size()));
  const std::int64_t step_t0 = obs::metrics_enabled() ? steady_us() : 0;
  tn::Tensor logits;
  {
    // Per-row contexts: hooks dispatched for row r inside forward_batch
    // (injections, detector trips) stamp their events with request r's
    // identity via obs::RowContextScope in the model layer.
    obs::RowContextGuard row_guard(row_ctxs_.data(),
                                   static_cast<int>(row_ctxs_.size()));
    logits = model_.forward_batch(rows);
  }
  ++stats_.decode_batches;
  stats_.decode_rows += rows.size();
  if (obs::metrics_enabled()) {
    const std::int64_t now = steady_us();
    const double us = static_cast<double>(now - step_t0);
    obs::observe("serve_decode_token_us", obs::latency_us_buckets(),
                 us / static_cast<double>(rows.size()));
    obs::observe("serve_batch_occupancy", obs::small_count_buckets(),
                 static_cast<double>(rows.size()));
    // Each live request observed one inter-token gap of (roughly) the
    // whole step's wall time — batched decode serializes rows into one
    // forward, so the step duration is what a streaming client sees
    // between tokens.
    for (size_t r = 0; r < rows.size(); ++r) {
      obs::SloMonitor::global().record_gap(now, us / 1000.0);
    }
  }

  for (size_t r = 0; r < live.size(); ++r) {
    Slot& s = *live[r];
    ++s.passes;
    s.nonfinite = s.nonfinite || rows[r].nonfinite;
    s.next = static_cast<tok::TokenId>(
        tn::argmax_row(logits, static_cast<tn::Index>(r)));
    ++s.step_idx;
    accept_or_retire(s, done);
  }
}

}  // namespace llmfi::serve
