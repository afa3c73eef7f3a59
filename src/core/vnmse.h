// vNMSE — the paper's cheap proxy metric for compression error.
//
// The (vector) normalized mean squared error between the true aggregated
// gradient and the compressor's estimate:
//     vNMSE = || est - sum ||^2 / || sum ||^2
// (equivalently with means — the 1/n factors cancel). Section 2.2 proposes
// it as a fast convergence-speed proxy for parameter tuning; Tables 4 and 7
// report it for the sparsifiers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/synthetic_grad.h"

namespace gcs::core {

class AggregationPipeline;

/// vNMSE of `estimate_sum` against the exact FP32 sum of `grads`.
double vnmse(std::span<const float> estimate_sum,
             std::span<const std::span<const float>> grads);

/// Result of a multi-round vNMSE measurement.
struct VnmseReport {
  double mean = 0.0;
  double stddev = 0.0;
  double mean_bits_per_coordinate = 0.0;
  int rounds = 0;
};

/// Runs `rounds` aggregation rounds of `pipeline` over gradients from
/// `source` and reports the average vNMSE and measured b. The codec is
/// reset() first so EF state does not leak across measurements.
VnmseReport measure_vnmse(AggregationPipeline& pipeline,
                          const SyntheticGradients& source, int rounds,
                          std::uint64_t first_round = 0);

}  // namespace gcs::core
