// Local TopK sparsification over all-gather (Aji & Heafield; Stich et al.).
//
// Each worker keeps its K largest-magnitude coordinates (after error-
// feedback compensation) and transmits them as FP16 values with 32-bit
// indices — the typical deployed format, b = 48K/d bits per coordinate.
// Because different workers pick different coordinates, the payloads are
// NOT hop-reducible: aggregation requires all-gather (up to nK distinct
// coordinates), which is the all-reduce-incompatibility the paper
// highlights for sparsification.
#pragma once

#include <cstddef>

#include "core/codec.h"

namespace gcs::core {

struct TopKConfig {
  std::size_t dimension = 0;
  int world_size = 4;
  /// Number of coordinates kept per worker. Use k_for_bits to derive from
  /// a bits-per-coordinate budget.
  std::size_t k = 0;
  /// Apply error feedback (the paper applies EF to all TopK runs).
  bool error_feedback = true;
  /// Use the 16-bit delta-encoded index format (footnote 2 of the paper)
  /// instead of plain 32-bit indices: 32 bits per entry instead of 48.
  bool delta_indices = false;

  /// Wire bits per entry: an FP16 value plus a 32-bit index (48), or
  /// plus a 16-bit delta index (32).
  static constexpr double entry_bits(bool delta_indices) noexcept {
    return delta_indices ? 32.0 : 48.0;
  }

  /// K achieving a budget of b bits per coordinate: K = d*b/48 (or d*b/32
  /// with delta indices).
  static std::size_t k_for_bits(std::size_t dimension, double bits,
                                bool delta_indices = false);
};

/// TopK's codec (one sparse all-gather stage; EF lives in the codec).
SchemeCodecPtr make_topk_codec(const TopKConfig& config);

}  // namespace gcs::core
