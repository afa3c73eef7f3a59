#include "core/synthetic_grad.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace gcs::core {

std::vector<float> seeded_worker_grad(std::size_t dimension,
                                      std::uint64_t seed, std::uint64_t round,
                                      int worker) {
  std::vector<float> grad(dimension);
  Rng rng(derive_seed(seed + round, worker));
  for (auto& v : grad) v = static_cast<float>(rng.next_gaussian());
  return grad;
}

std::uint64_t fnv64(std::span<const float> values) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

std::vector<std::vector<float>> seeded_worker_grads(std::size_t dimension,
                                                    int world_size,
                                                    std::uint64_t seed,
                                                    std::uint64_t round) {
  std::vector<std::vector<float>> grads;
  grads.reserve(static_cast<std::size_t>(world_size));
  for (int w = 0; w < world_size; ++w) {
    grads.push_back(seeded_worker_grad(dimension, seed, round, w));
  }
  return grads;
}

SyntheticGradients::SyntheticGradients(SyntheticGradConfig config)
    : config_(std::move(config)) {
  GCS_CHECK(config_.world_size >= 1);
  GCS_CHECK(config_.locality >= 0.0 && config_.locality < 1.0);
  GCS_CHECK(config_.worker_correlation >= 0.0 &&
            config_.worker_correlation <= 1.0);
  Rng rng(derive_seed(config_.seed, 0xA11));
  layer_scale_.resize(config_.layout.num_layers());
  for (auto& s : layer_scale_) {
    s = static_cast<float>(
        std::exp(config_.layer_sigma * rng.next_gaussian()));
  }
}

void SyntheticGradients::generate(
    std::uint64_t round, std::vector<std::vector<float>>& grads) const {
  const std::size_t d = dimension();
  const auto n = static_cast<std::size_t>(config_.world_size);
  grads.resize(n);
  for (auto& g : grads) g.resize(d);

  // Shared streams: envelope AR(1) and common signal.
  Rng env_rng(derive_seed(config_.seed, 2 * round + 0));
  Rng sig_rng(derive_seed(config_.seed, 2 * round + 1));
  std::vector<Rng> worker_rngs;
  worker_rngs.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    worker_rngs.emplace_back(
        derive_seed(config_.seed ^ 0x3f9, round * n + w));
  }

  const double rho = config_.locality;
  const double innov = std::sqrt(1.0 - rho * rho);
  const double rho_s = config_.signal_smoothness;
  const double innov_s = std::sqrt(1.0 - rho_s * rho_s);
  const float shared_w =
      static_cast<float>(std::sqrt(config_.worker_correlation));
  const float idio_w =
      static_cast<float>(std::sqrt(1.0 - config_.worker_correlation));

  double ar = env_rng.next_gaussian();
  double sig = sig_rng.next_gaussian();
  // Per-worker idiosyncratic components share the signal smoothness: a
  // worker's minibatch gradient is itself an outer product, so its
  // deviation from the mean is spatially coherent too.
  std::vector<double> idio(n);
  for (std::size_t w = 0; w < n; ++w) {
    idio[w] = worker_rngs[w].next_gaussian();
  }
  for (std::size_t l = 0; l < config_.layout.num_layers(); ++l) {
    const std::size_t begin = config_.layout.offset(l);
    const std::size_t end = begin + config_.layout.layer(l).size();
    const float scale = layer_scale_[l];
    for (std::size_t i = begin; i < end; ++i) {
      ar = rho * ar + innov * env_rng.next_gaussian();
      const float envelope =
          scale *
          static_cast<float>(std::exp(config_.tail_sigma * ar));
      sig = rho_s * sig + innov_s * sig_rng.next_gaussian();
      const float z = static_cast<float>(sig);
      for (std::size_t w = 0; w < n; ++w) {
        idio[w] = rho_s * idio[w] +
                  innov_s * worker_rngs[w].next_gaussian();
        grads[w][i] =
            envelope * (shared_w * z + idio_w * static_cast<float>(idio[w]));
      }
    }
  }

  if (config_.normalize) {
    double mean_norm = 0.0;
    for (const auto& g : grads) {
      double nrm2 = 0.0;
      for (float v : g) nrm2 += static_cast<double>(v) * v;
      mean_norm += std::sqrt(nrm2);
    }
    mean_norm /= static_cast<double>(n);
    if (mean_norm > 0.0) {
      const auto inv = static_cast<float>(1.0 / mean_norm);
      for (auto& g : grads) {
        for (float& v : g) v *= inv;
      }
    }
  }
}

}  // namespace gcs::core
