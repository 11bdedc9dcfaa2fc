#include "nn/layer_id.h"

namespace llmfi::nn {

std::string_view layer_kind_name(LayerKind k) {
  switch (k) {
    case LayerKind::QProj: return "q_proj";
    case LayerKind::KProj: return "k_proj";
    case LayerKind::VProj: return "v_proj";
    case LayerKind::OProj: return "o_proj";
    case LayerKind::GateProj: return "gate_proj";
    case LayerKind::UpProj: return "up_proj";
    case LayerKind::DownProj: return "down_proj";
    case LayerKind::Router: return "router";
    case LayerKind::ExpertGate: return "expert_gate";
    case LayerKind::ExpertUp: return "expert_up";
    case LayerKind::ExpertDown: return "expert_down";
  }
  return "?";
}

std::string to_string(const LinearId& id) {
  std::string s = "block";
  s += std::to_string(id.block);
  s += '.';
  s += layer_kind_name(id.kind);
  if (id.expert >= 0) {
    s += '[';
    s += std::to_string(id.expert);
    s += ']';
  }
  return s;
}

}  // namespace llmfi::nn
