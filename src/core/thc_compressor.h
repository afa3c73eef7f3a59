// THC-style stochastic quantization (Li et al., NSDI'24) with the paper's
// two all-reduce-oriented improvements: partial rotation and
// saturation-based aggregation.
//
// Pipeline per round:
//   1. Randomized Hadamard Transform of the gradient (shared sign
//      diagonal). Rotation mode:
//        kFull    — all l = log2(d) butterfly levels (the THC baseline;
//                   O(d log d), GPU-global-memory bound),
//        kPartial — l' levels chosen so one 2^l'-float block fits in GPU
//                   shared memory; equivalent to independent per-block
//                   rotations but executable as one kernel,
//        kNone    — ablation without rotation.
//   2. Range consensus: per-block [min, max] is all-reduced (min/max ops
//      are associative, so this round is trivially all-reduce compatible).
//      Sharing the range is what makes summation of quantized levels
//      meaningful ("homomorphic").
//   3. Stochastic quantization to q-bit levels against the shared range.
//   4. Aggregation of centered levels (level - 2^{q-1}) as signed b-bit
//      lanes:
//        saturation mode (b = q): hop-wise Sat(., .) — no extra bits, rare
//          clips thanks to post-rotation concentration around zero;
//        wide mode (b > q): the simple adaptation THC itself proposes —
//          enough headroom that sums cannot overflow (b >= q + log2 n).
//   5. Decode level sums against the shared range; inverse rotation.
//
// The clip rate observed by the saturating reduction is reported in
// RoundStats::sat, letting experiments verify the paper's "low probability
// of overflows" claim and explore where it breaks (large n).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/codec.h"

namespace gcs::core {

enum class RotationMode : std::uint8_t { kNone, kPartial, kFull };

std::string to_string(RotationMode mode);

struct ThcConfig {
  std::size_t dimension = 0;
  int world_size = 4;
  /// Quantization bits q (levels = 2^q). The paper uses q in {2, 4}.
  unsigned q = 4;
  /// Wire bits b per coordinate. b == q requires saturation; b > q is the
  /// overflow-headroom baseline (the paper's BL uses b = 8, q = 4).
  unsigned b = 4;
  RotationMode rotation = RotationMode::kPartial;
  /// Saturating aggregation (the paper's proposal) vs plain summation in
  /// the wider b-bit domain.
  bool saturation = true;
  /// GPU shared-memory budget that bounds the partial rotation block:
  /// largest 2^l' with 2^l' floats <= this. Default mirrors an A100 SM
  /// (164 KB per SM, so 32K floats -> l' = 15; we keep 13 for the 32 KB
  /// default carve-out NCCL-era kernels typically use).
  std::size_t shared_memory_bytes = 32 * 1024;
  /// Shared randomness seed for the RHT sign diagonals.
  std::uint64_t seed = 0x7AC5EEDULL;

  bool valid_bits() const noexcept {
    return saturation ? b == q : b >= q;
  }
};

/// THC's codec: min/max range-consensus stages followed by a saturating
/// (or wide) signed-lane all-reduce stage.
SchemeCodecPtr make_thc_codec(const ThcConfig& config);

}  // namespace gcs::core
