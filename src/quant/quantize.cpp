#include "quant/quantize.h"

#include "kernels/kernels.h"

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

}  // namespace gcs
