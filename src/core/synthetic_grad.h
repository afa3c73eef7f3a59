// Synthetic gradient generator with controllable structure.
//
// The vNMSE tables (Tables 4 and 7) and many unit tests need gradients
// whose statistics resemble real training gradients. Three properties
// matter for the paper's case study:
//   * heavy-tailed magnitudes  — TopK's whole premise: a small fraction of
//     coordinates carries most of the energy;
//   * spatial locality         — large coordinates cluster (layer scales,
//     filter/row structure); this is exactly what TopKC exploits and what
//     the permutation ablation destroys;
//   * cross-worker correlation — workers compute gradients on different
//     mini-batches of the same distribution, so their gradients share a
//     common signal plus idiosyncratic noise.
//
// Generator model, per coordinate i of layer l:
//     envelope_i = layer_scale_l * exp(tail_sigma * a_i)
//     a_i  = rho * a_{i-1} + sqrt(1 - rho^2) * xi_i        (AR(1), shared)
//     g_i^w = envelope_i * (sqrt(corr) * z_i + sqrt(1-corr) * e_i^w)
// with xi, z ~ N(0,1) shared across workers and e^w ~ N(0,1) per worker.
// rho ("locality") and tail_sigma are the knobs; everything is seeded.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/layout.h"

namespace gcs::core {

struct SyntheticGradConfig {
  ModelLayout layout;
  int world_size = 4;
  /// AR(1) coefficient in [0, 1): 0 = no locality, 0.99 = very smooth
  /// envelope. Real layer gradients sit around 0.95-0.99.
  double locality = 0.97;
  /// Log-scale std-dev of the magnitude envelope (heavy-tailedness).
  double tail_sigma = 1.6;
  /// Log-scale std-dev of per-layer scales (layer heterogeneity).
  double layer_sigma = 1.0;
  /// Fraction of variance shared across workers, in [0, 1].
  double worker_correlation = 0.8;
  /// AR(1) coefficient of the shared signal *values* (not just their
  /// magnitude envelope). Real layer gradients are outer products of
  /// activations and deltas, so neighbouring coordinates carry coherent
  /// values; 0 = iid realizations.
  double signal_smoothness = 0.0;
  /// Rescale each round so the mean worker L2 norm is 1. Real gradients
  /// are O(1)-normed; without this, heavy-tailed envelopes produce chunk
  /// norms far outside FP16 range and the TopKC consensus round (which
  /// travels in FP16, per the paper) saturates to infinity.
  bool normalize = true;
  std::uint64_t seed = 0x9eadbeef;
};

/// Deterministic unstructured per-worker gradients from (seed, round,
/// worker) alone: iid N(0,1) coordinates. The multi-process protocol
/// binaries (gcs_worker, gcs_driver) derive each rank's tensor from this
/// one recipe, and the all-worker references regenerate the same tensors
/// — the cross-process agreement checks depend on there being exactly
/// one implementation, so nothing but protocol bytes crosses the wire.
std::vector<std::vector<float>> seeded_worker_grads(std::size_t dimension,
                                                    int world_size,
                                                    std::uint64_t seed,
                                                    std::uint64_t round);

/// Worker `worker`'s tensor of seeded_worker_grads, alone: what an SPMD
/// rank generates, since it holds only its own gradient.
std::vector<float> seeded_worker_grad(std::size_t dimension,
                                      std::uint64_t seed, std::uint64_t round,
                                      int worker);

/// FNV-1a over raw float bytes: the cross-process agreement probe for
/// aggregates of the seeded gradients above. Bit-identity is the claim,
/// so a byte hash is the right probe.
std::uint64_t fnv64(std::span<const float> values);

/// Deterministic per-round gradient source for a simulated cluster.
class SyntheticGradients {
 public:
  explicit SyntheticGradients(SyntheticGradConfig config);

  std::size_t dimension() const noexcept { return config_.layout.total_size(); }
  int world_size() const noexcept { return config_.world_size; }
  const ModelLayout& layout() const noexcept { return config_.layout; }

  /// Fills grads[w] (resized to dimension()) for every worker, for the
  /// given round. Same (config, round) always produces the same data.
  void generate(std::uint64_t round,
                std::vector<std::vector<float>>& grads) const;

 private:
  SyntheticGradConfig config_;
  std::vector<float> layer_scale_;  // one multiplier per layer
};

}  // namespace gcs::core
