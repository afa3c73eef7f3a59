#include "quant/satint.h"

#include <algorithm>

#include "common/check.h"
#include "quant/packing.h"

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

void sat_clamp_lanes(std::span<std::int32_t> lanes, unsigned bits) noexcept {
  const std::int32_t hi = sat_max(bits);
  const std::int32_t lo = sat_min(bits);
  for (auto& v : lanes) v = std::clamp(v, lo, hi);
}

ByteBuffer pack_signed_lanes(std::span<const std::int32_t> lanes,
                             unsigned bits) {
  GCS_CHECK(bits >= 2 && bits <= 16);
  const std::int32_t offset = 1 << (bits - 1);
  std::vector<std::uint16_t> raw(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    GCS_CHECK_MSG(lanes[i] >= sat_min(bits) && lanes[i] <= sat_max(bits),
                  "lane " << i << " value " << lanes[i]
                          << " outside saturation domain for b=" << bits);
    raw[i] = static_cast<std::uint16_t>(lanes[i] + offset);
  }
  return pack_lanes(raw, bits);
}

std::vector<std::int32_t> unpack_signed_lanes(std::span<const std::byte> data,
                                              std::size_t count,
                                              unsigned bits) {
  GCS_CHECK(bits >= 2 && bits <= 16);
  const std::int32_t offset = 1 << (bits - 1);
  const auto raw = unpack_lanes(data, count, bits);
  std::vector<std::int32_t> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = static_cast<std::int32_t>(raw[i]) - offset;
  }
  return out;
}

}  // namespace gcs
