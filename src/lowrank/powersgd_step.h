// Single-matrix PowerSGD power-iteration machinery (Vogels et al., 2019).
//
// For a layer gradient reshaped to M (m x c), rank-r PowerSGD maintains a
// warm-started c x r matrix Q and each round computes
//     P = M Q;   all-reduce(P);   P <- orthogonalize(P)
//     Q = M^T P; all-reduce(Q)
//     M_hat = P Q^T
// Only P (m x r) and Q (c x r) cross the network — 16r(m+c) bits per layer
// in FP16 — which is where the scheme's large compression ratios come from.
// This header provides the per-matrix steps — the products run on the
// kernel layer's matmul panels, whose fold order is pinned (kernels.h) —
// and the core-library compressor (core/powersgd_compressor.h) sequences
// them across layers and drives the collectives.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace gcs {

class Rng;

/// Per-layer PowerSGD state: the warm-started Q iterate (c x r, row-major).
struct PowerSgdLayerState {
  std::size_t rows = 0;  ///< m: rows of the layer matrix
  std::size_t cols = 0;  ///< c: cols of the layer matrix
  std::size_t rank = 0;  ///< r
  std::vector<float> q;  ///< c x r iterate, warm-started across rounds

  /// Initializes Q with i.i.d. Gaussian entries (the PowerSGD warm start).
  static PowerSgdLayerState init(std::size_t rows, std::size_t cols,
                                 std::size_t rank, Rng& rng);
};

/// P = M * Q. p must be rows x rank.
void powersgd_compute_p(std::span<const float> m,
                        const PowerSgdLayerState& st, std::span<float> p);

/// Q = M^T * P. q_out must be cols x rank. (P should be orthonormal.)
void powersgd_compute_q(std::span<const float> m,
                        const PowerSgdLayerState& st,
                        std::span<const float> p, std::span<float> q_out);

/// M_hat = P * Q^T, written over `m_hat` (rows x cols).
void powersgd_reconstruct(const PowerSgdLayerState& st,
                          std::span<const float> p,
                          std::span<const float> q,
                          std::span<float> m_hat);

/// Effective rank used for a layer: min(r, rows, cols). Rank-1 layers
/// (bias vectors) transmit exactly.
std::size_t effective_rank(std::size_t rows, std::size_t cols,
                           std::size_t rank) noexcept;

}  // namespace gcs
