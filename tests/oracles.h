// Test oracles: the legacy per-coordinate reference paths the library's
// fused kernels replaced. The library keeps one implementation of each
// (kernels::Backend's thc_encode_lanes, thc_decode_lanes and
// sat_add_packed; top_k_indices' radix select); these exist only so the
// tests can check it against the obvious code.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/rng.h"
#include "numeric/precision.h"
#include "quant/packing.h"
#include "quant/quantize.h"
#include "quant/satint.h"

namespace gcs {

/// Stochastically quantizes x into q-bit levels [0, 2^q - 1], one
/// rng.next_float() per value. Values outside [lo, hi] clamp to the
/// boundary levels.
inline void quantize_stochastic(std::span<const float> x, QuantRange range,
                                unsigned q, Rng& rng,
                                std::span<std::uint16_t> out_levels) {
  GCS_CHECK(q >= 1 && q <= 16);
  GCS_CHECK(out_levels.size() >= x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out_levels[i] = static_cast<std::uint16_t>(
        stochastic_level(x[i], range.lo, range.hi, q, rng.next_float()));
  }
}

/// Reconstructs the *sum* of n workers' values from the sum of their
/// levels (the homomorphic decode): sum_i x_i ~= n*lo + delta * sum_i
/// level_i.
inline float dequantize_level_sum(std::int64_t level_sum, unsigned n_workers,
                                  QuantRange range, unsigned q) noexcept {
  const auto levels = static_cast<float>((1u << q) - 1u);
  if (levels == 0.0f || range.width() <= 0.0f) {
    return range.lo * static_cast<float>(n_workers);
  }
  const float delta = range.width() / levels;
  return range.lo * static_cast<float>(n_workers) +
         delta * static_cast<float>(level_sum);
}

/// Clamps each lane into the saturation domain.
inline void sat_clamp_lanes(std::span<std::int32_t> lanes,
                            unsigned bits) noexcept {
  for (auto& v : lanes) v = std::clamp(v, sat_min(bits), sat_max(bits));
}

/// Serializes signed lanes to offset-binary packed `bits`-bit form.
/// Every lane must already lie inside the saturation domain.
inline ByteBuffer pack_signed_lanes(std::span<const std::int32_t> lanes,
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

/// Inverse of pack_signed_lanes.
inline std::vector<std::int32_t> unpack_signed_lanes(
    std::span<const std::byte> data, std::size_t count, unsigned bits) {
  GCS_CHECK(bits >= 2 && bits <= 16);
  const std::int32_t offset = 1 << (bits - 1);
  const auto raw = unpack_lanes(data, count, bits);
  std::vector<std::int32_t> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = static_cast<std::int32_t>(raw[i]) - offset;
  }
  return out;
}

/// Top-K by full sort, O(d log d): indices of the K largest |x[i]| in
/// ascending index order, ties toward the lower index.
inline std::vector<std::uint32_t> top_k_indices_reference(
    std::span<const float> x, std::size_t k) {
  k = std::min(k, x.size());
  std::vector<std::uint32_t> idx(x.size());
  std::iota(idx.begin(), idx.end(), 0u);
  std::sort(idx.begin(), idx.end(), [x](std::uint32_t a, std::uint32_t b) {
    const float ma = std::fabs(x[a]);
    const float mb = std::fabs(x[b]);
    if (ma != mb) return ma > mb;
    return a < b;
  });
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  return idx;
}

}  // namespace gcs
