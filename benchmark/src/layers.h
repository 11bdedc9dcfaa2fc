#pragma once
// Per-layer measurements of the traced run that do not depend on how a
// workload drives the stack: model forwards, tensor products, paged-KV
// primitives, sequential generation and detector cost, each timed by
// the Span around the call (layers.cpp). Plus the fold of the program's
// own obs spans into self-time shares and serve step/admission costs.

#include <vector>

#include "bench.h"
#include "spans.h"

namespace llmfi::bench {

// Fills the model.*, tensor.*, nn.*, gen.* and core.checksum_* metrics on
// `e`'s engine at the active kernel tier. Inputs are the first gsm8k-syn
// prompts, the same for every workload.
void measure_layers(Engine& e, Report& r);

// obs.self_frac.<span>: each named program span's share of the summed
// self time of every span in `spans`.
void add_self_fracs(const std::vector<ProgramSpan>& spans, Report& r);

// serve.step_us.rows{1,2,4}: median `decode_step` span by its row count.
void add_step_times(const std::vector<ProgramSpan>& spans, Report& r);

}  // namespace llmfi::bench
