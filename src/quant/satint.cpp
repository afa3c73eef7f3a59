#include "quant/satint.h"

#include <algorithm>

namespace gcs {

std::int32_t sat_add(std::int32_t x, std::int32_t y, unsigned bits) noexcept {
  const std::int32_t hi = sat_max(bits);
  const std::int32_t lo = sat_min(bits);
  const std::int64_t sum =
      static_cast<std::int64_t>(x) + static_cast<std::int64_t>(y);
  if (sum > hi) return hi;
  if (sum < lo) return lo;
  return static_cast<std::int32_t>(sum);
}

void sat_add_lanes(std::span<std::int32_t> acc,
                   std::span<const std::int32_t> in, unsigned bits,
                   SatStats* stats) noexcept {
  const std::size_t n = std::min(acc.size(), in.size());
  const std::int32_t hi = sat_max(bits);
  const std::int32_t lo = sat_min(bits);
  std::uint64_t clips = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t sum = static_cast<std::int64_t>(acc[i]) +
                             static_cast<std::int64_t>(in[i]);
    if (sum > hi) {
      acc[i] = hi;
      ++clips;
    } else if (sum < lo) {
      acc[i] = lo;
      ++clips;
    } else {
      acc[i] = static_cast<std::int32_t>(sum);
    }
  }
  if (stats != nullptr) {
    stats->additions += n;
    stats->clips += clips;
  }
}

}  // namespace gcs
