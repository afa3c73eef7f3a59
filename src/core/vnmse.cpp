#include "core/vnmse.h"

#include "common/check.h"
#include "common/stats.h"
#include "core/aggregation_pipeline.h"

namespace gcs::core {

double vnmse(std::span<const float> estimate_sum,
             std::span<const std::span<const float>> grads) {
  GCS_CHECK(!grads.empty());
  const std::size_t d = estimate_sum.size();
  double err = 0.0;
  double ref = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    double sum = 0.0;
    for (const auto& g : grads) sum += static_cast<double>(g[i]);
    const double diff = static_cast<double>(estimate_sum[i]) - sum;
    err += diff * diff;
    ref += sum * sum;
  }
  return ref > 0.0 ? err / ref : 0.0;
}

VnmseReport measure_vnmse(AggregationPipeline& pipeline,
                          const SyntheticGradients& source, int rounds,
                          std::uint64_t first_round) {
  GCS_CHECK(rounds >= 1);
  pipeline.codec().reset();
  const std::size_t d = source.dimension();
  std::vector<std::vector<float>> grads;
  std::vector<float> estimate(d);
  RunningStats err_stats;
  RunningStats bits_stats;
  for (int r = 0; r < rounds; ++r) {
    source.generate(first_round + static_cast<std::uint64_t>(r), grads);
    std::vector<std::span<const float>> views;
    views.reserve(grads.size());
    for (const auto& g : grads) views.emplace_back(g.data(), g.size());
    const RoundStats round_stats = pipeline.aggregate(
        views, estimate, first_round + static_cast<std::uint64_t>(r));
    err_stats.add(vnmse(estimate, views));
    bits_stats.add(round_stats.bits_per_coordinate(d));
  }
  VnmseReport report;
  report.mean = err_stats.mean();
  report.stddev = err_stats.stddev();
  report.mean_bits_per_coordinate = bits_stats.mean();
  report.rounds = rounds;
  return report;
}

}  // namespace gcs::core
