#include "quant/quantize.h"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.h"
#include "numeric/precision.h"

namespace gcs {

QuantRange compute_range(std::span<const float> x) noexcept {
  if (x.empty()) return {};
  // Single-pass kernel; the backend contract pins it to the sequential
  // std::min/std::max fold bit-for-bit (THC computes one range per block
  // per worker per round, so this is an encode hot path).
  QuantRange r;
  kernels::active().min_max(x.data(), x.size(), &r.lo, &r.hi);
  return r;
}

QuantRange merge_ranges(QuantRange a, QuantRange b) noexcept {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

void quantize_nearest(std::span<const float> x, QuantRange range, unsigned q,
                      std::span<std::uint16_t> out_levels) noexcept {
  const auto levels = static_cast<float>((1u << q) - 1u);
  const float width = range.width();
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (width <= 0.0f) {
      out_levels[i] = 0;
      continue;
    }
    float t = (x[i] - range.lo) / width * levels;
    t = std::clamp(t, 0.0f, levels);
    out_levels[i] = static_cast<std::uint16_t>(std::lround(t));
  }
}

float dequantize_level(std::uint32_t level, QuantRange range,
                       unsigned q) noexcept {
  const auto levels = static_cast<float>((1u << q) - 1u);
  if (levels == 0.0f || range.width() <= 0.0f) return range.lo;
  return range.lo + (range.width() / levels) * static_cast<float>(level);
}

void dequantize(std::span<const std::uint16_t> levels, QuantRange range,
                unsigned q, std::span<float> out) noexcept {
  const std::size_t n = std::min(levels.size(), out.size());
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = dequantize_level(levels[i], range, q);
  }
}

}  // namespace gcs
