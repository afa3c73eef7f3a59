// Saturating signed b-bit lane arithmetic — the paper's Sat(.,.) operator.
//
// THC's all-reduce adaptation replaces integer summation at intermediate
// hops with saturated addition so a partially aggregated payload never
// needs more than b bits. The paper writes the bounds symmetrically,
//     Sat(x, y) = min(2^{b-1} - 1, max(-2^{b-1} + 1, x + y)),
// but a symmetric domain holds only 2^b - 1 values, which cannot represent
// the 2^q centered quantization levels when b = q — making the paper's own
// b = q = 2 configuration unencodable. We therefore use the two's-
// complement domain [-2^{b-1}, 2^{b-1} - 1] (one extra value at the
// bottom), under which a centered q-bit level fits exactly at b = q. On
// the wire a lane is stored offset-binary (value + 2^{b-1}) in b packed
// bits (the packers are test oracles, tests/oracles.h). The helpers here
// are the lane-level reference; the fold an all-reduce hop runs on packed
// payloads is comm::make_sat_int, backed by
// kernels::Backend::sat_add_packed.
//
// NOTE: saturated addition is commutative but NOT associative once any
// intermediate sum clips, so the reduction order matters. gcs::comm fixes a
// canonical ring order and the local reference aggregator reproduces it
// exactly; tests pin this down.
#pragma once

#include <cstdint>
#include <span>

namespace gcs {

/// Saturation bounds for b-bit lanes (two's complement; see file comment).
constexpr std::int32_t sat_max(unsigned bits) noexcept {
  return static_cast<std::int32_t>((1u << (bits - 1)) - 1u);
}
constexpr std::int32_t sat_min(unsigned bits) noexcept {
  return -static_cast<std::int32_t>(1u << (bits - 1));
}

/// Clip statistics accumulated during saturated reductions; the benches use
/// these to report overflow frequency (the paper's "low probability of
/// overflows" claim).
struct SatStats {
  std::uint64_t additions = 0;  ///< lane additions performed
  std::uint64_t clips = 0;      ///< additions that hit a saturation bound

  double clip_rate() const noexcept {
    return additions == 0
               ? 0.0
               : static_cast<double>(clips) / static_cast<double>(additions);
  }
  void merge(const SatStats& other) noexcept {
    additions += other.additions;
    clips += other.clips;
  }
};

/// Sat(x, y) on a single lane.
std::int32_t sat_add(std::int32_t x, std::int32_t y, unsigned bits) noexcept;

/// acc[i] = Sat(acc[i], in[i]) lane-wise; clip counts recorded in stats.
void sat_add_lanes(std::span<std::int32_t> acc, std::span<const std::int32_t> in,
                   unsigned bits, SatStats* stats) noexcept;

}  // namespace gcs
