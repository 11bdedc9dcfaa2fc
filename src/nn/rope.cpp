#include "nn/rope.h"

#include <cassert>
#include <cmath>
#include <vector>

namespace llmfi::nn {

namespace {

// Rotates every head of row t by the angles pos_of(t) * freq[i]. freq[i]
// is computed once per call and each row's d_head / 2 (cos, sin) pairs
// once per row rather than once per head; the float expressions are the
// per-head ones, so every rotated value keeps its bits.
template <class PosOf>
void rotate_rows(tn::Tensor& x, int n_heads, float theta, bool inverse,
                 PosOf pos_of) {
  assert(x.rank() == 2);
  const tn::Index d_model = x.cols();
  assert(d_model % n_heads == 0);
  const tn::Index d_head = d_model / n_heads;
  assert(d_head % 2 == 0);
  const tn::Index half = d_head / 2;

  std::vector<float> freq(static_cast<size_t>(half));
  std::vector<float> cos_t(freq.size()), sin_t(freq.size());
  for (tn::Index i = 0; i < half; ++i) {
    freq[static_cast<size_t>(i)] = std::pow(
        theta, -2.0f * static_cast<float>(i) / static_cast<float>(d_head));
  }
  for (tn::Index t = 0; t < x.rows(); ++t) {
    const float pos = pos_of(t);
    for (size_t i = 0; i < freq.size(); ++i) {
      const float angle = pos * freq[i];
      cos_t[i] = std::cos(angle);
      sin_t[i] = inverse ? -std::sin(angle) : std::sin(angle);
    }
    auto row = x.row(t);
    for (int h = 0; h < n_heads; ++h) {
      float* head = row.data() + static_cast<tn::Index>(h) * d_head;
      for (tn::Index i = 0; i < half; ++i) {
        const float c = cos_t[static_cast<size_t>(i)];
        const float s = sin_t[static_cast<size_t>(i)];
        const float a = head[2 * i];
        const float b = head[2 * i + 1];
        head[2 * i] = a * c - b * s;
        head[2 * i + 1] = a * s + b * c;
      }
    }
  }
}

}  // namespace

void apply_rope(tn::Tensor& x, int n_heads, int pos_offset, float theta,
                bool inverse) {
  rotate_rows(x, n_heads, theta, inverse, [&](tn::Index t) {
    return static_cast<float>(pos_offset + t);
  });
}

void apply_rope_rows(tn::Tensor& x, int n_heads,
                     std::span<const int> positions, float theta) {
  assert(static_cast<size_t>(x.rows()) == positions.size());
  rotate_rows(x, n_heads, theta, false, [&](tn::Index t) {
    return static_cast<float>(positions[static_cast<size_t>(t)]);
  });
}

}  // namespace llmfi::nn
