// PowerSGD low-rank gradient compression (Vogels et al., 2019).
//
// Each layer's gradient is viewed as an m x c matrix M and approximated by
// a rank-r product P Q^T via one warm-started subspace (power) iteration
// per round:
//     P = M Q            -> all-reduce(P)  -> P = orthogonalize(P)
//     Q = M^T P          -> all-reduce(Q)
//     M_hat = P Q^T / n  (per-worker reconstruction of the mean)
// P and Q travel in FP16, so b = 16 r (m + c) / (m c) bits per coordinate
// per layer — tiny for large matrices, which is PowerSGD's compression
// story. Because the all-reduced objects are sums of linear images of the
// local gradients, the scheme is natively all-reduce compatible (the
// paper's Table 1 credits it for that).
//
// Error feedback follows the original algorithm: each worker's memory is
// its (compensated) gradient minus the shared reconstruction.
//
// 1-D layers (biases, LayerNorms) are transmitted exactly in FP16 — the
// reference implementation's "rank-1 tensors aggregate uncompressed" rule.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/codec.h"
#include "tensor/layout.h"

namespace gcs::core {

struct PowerSgdConfig {
  ModelLayout layout;  ///< defines the per-layer matrix shapes
  int world_size = 4;
  /// Target rank r (the paper sweeps r in {1, 4, 16, 64}).
  std::size_t rank = 4;
  /// Error feedback, on by default per the original algorithm.
  bool error_feedback = true;
  std::uint64_t seed = 0x90A3C5EEDULL;
};

/// PowerSGD's codec: an FP16 all-reduce of P (plus dense-exact layers)
/// followed by an FP16 all-reduce of Q, both hop-reducible.
SchemeCodecPtr make_powersgd_codec(const PowerSgdConfig& config);

}  // namespace gcs::core
