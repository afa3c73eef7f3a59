// TopK Chunked (TopKC) — the paper's all-reduce-compatible sparsifier.
//
// Pipeline (Section 3.1.2):
//   1. Partition the (EF-compensated) gradient into ceil(d/C) chunks of C
//      coordinates.
//   2. Consensus round: all-reduce the per-chunk squared L2 norms in FP16
//      (16/C bits per coordinate). Every worker now holds identical
//      aggregated chunk scores.
//   3. Each worker locally selects the J chunks with the largest scores —
//      deterministic, hence globally consistent without extra traffic.
//   4. Main round: all-reduce the selected chunks' values in FP16
//      (16*J*C/d bits per coordinate). Payloads are hop-reducible because
//      all workers agreed on the same coordinates: this is what makes the
//      scheme all-reduce compatible.
//
// Total b = 16 (J*C/d + 1/C). Compared with TopK at equal b, TopKC
// aggregates more coordinates (J' = J*C > K) because it spends no bits on
// indices, and its memory access is sequential (chunk gathers) instead of
// scattered — the paper's two design points.
//
// The TopKC-Permutation ablation (Table 4) applies a fixed random
// permutation to the coordinates first, destroying the spatial locality
// the chunk heuristic exploits; it exists to demonstrate that locality is
// where the quality comes from.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/codec.h"

namespace gcs::core {

struct TopKCConfig {
  std::size_t dimension = 0;
  int world_size = 4;
  /// Chunk size C. The paper uses C = 64 for b in {2, 8} and C = 128 for
  /// b = 0.5.
  std::size_t chunk_size = 64;
  /// Number of top chunks J aggregated each round.
  std::size_t num_top_chunks = 0;
  /// Apply error feedback (on by default, as in the paper).
  bool error_feedback = true;
  /// Ablation: randomly permute coordinates to destroy spatial locality.
  bool permute = false;
  std::uint64_t permute_seed = 0x70cc5eed;

  /// J achieving a budget of b bits per coordinate for chunk size C:
  /// J = (b/16 - 1/C) * d / C, clamped to [1, ceil(d/C)].
  static std::size_t j_for_bits(std::size_t dimension, std::size_t chunk_size,
                                double bits);
  /// The paper's chunk-size choice for a given budget: 128 when b < 1,
  /// else 64.
  static std::size_t default_chunk_size(double bits) noexcept {
    return bits < 1.0 ? 128 : 64;
  }
};

/// TopKC's codec: an FP16 norm-consensus stage followed by an FP16
/// chunk-values stage, both hop-reducible.
SchemeCodecPtr make_topkc_codec(const TopKCConfig& config);

}  // namespace gcs::core
