// Tests for core/synthetic_grad and core/vnmse.
#include <gtest/gtest.h>

#include <cmath>

#include "core/aggregation_pipeline.h"
#include "core/baselines.h"
#include "core/synthetic_grad.h"
#include "core/vnmse.h"
#include "tensor/layout.h"

namespace gcs::core {
namespace {

SyntheticGradConfig small_config() {
  SyntheticGradConfig config;
  config.layout = make_transformer_like_layout(1 << 14);
  config.world_size = 4;
  return config;
}

TEST(SyntheticGrad, DeterministicPerRound) {
  SyntheticGradients source(small_config());
  std::vector<std::vector<float>> a, b;
  source.generate(3, a);
  source.generate(3, b);
  EXPECT_EQ(a, b);
  source.generate(4, b);
  EXPECT_NE(a, b);
}

TEST(SyntheticGrad, ShapesMatchLayout) {
  SyntheticGradients source(small_config());
  std::vector<std::vector<float>> grads;
  source.generate(0, grads);
  ASSERT_EQ(grads.size(), 4u);
  for (const auto& g : grads) EXPECT_EQ(g.size(), source.dimension());
}

TEST(SyntheticGrad, WorkersShareSignalButDiffer) {
  auto config = small_config();
  config.worker_correlation = 0.8;
  SyntheticGradients source(config);
  std::vector<std::vector<float>> grads;
  source.generate(0, grads);
  // Positive cross-worker correlation, but not identical.
  double dot01 = 0.0, n0 = 0.0, n1 = 0.0;
  for (std::size_t i = 0; i < grads[0].size(); ++i) {
    dot01 += static_cast<double>(grads[0][i]) * grads[1][i];
    n0 += static_cast<double>(grads[0][i]) * grads[0][i];
    n1 += static_cast<double>(grads[1][i]) * grads[1][i];
  }
  const double corr = dot01 / std::sqrt(n0 * n1);
  EXPECT_GT(corr, 0.5);
  EXPECT_LT(corr, 0.99);
}

TEST(SyntheticGrad, ZeroCorrelationDecorrelates) {
  auto config = small_config();
  config.worker_correlation = 0.0;
  SyntheticGradients source(config);
  std::vector<std::vector<float>> grads;
  source.generate(0, grads);
  double dot01 = 0.0, n0 = 0.0, n1 = 0.0;
  for (std::size_t i = 0; i < grads[0].size(); ++i) {
    dot01 += static_cast<double>(grads[0][i]) * grads[1][i];
    n0 += static_cast<double>(grads[0][i]) * grads[0][i];
    n1 += static_cast<double>(grads[1][i]) * grads[1][i];
  }
  EXPECT_LT(std::fabs(dot01 / std::sqrt(n0 * n1)), 0.1);
}

TEST(SyntheticGrad, LocalityProducesSmoothEnvelope) {
  // With high locality, neighbouring |g| are correlated; with zero
  // locality they are not. Compare lag-1 autocorrelation of |g|.
  auto high = small_config();
  high.locality = 0.98;
  auto low = small_config();
  low.locality = 0.0;
  auto autocorr = [](const std::vector<float>& g) {
    double m = 0.0;
    for (float v : g) m += std::fabs(v);
    m /= static_cast<double>(g.size());
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i + 1 < g.size(); ++i) {
      num += (std::fabs(g[i]) - m) * (std::fabs(g[i + 1]) - m);
      den += (std::fabs(g[i]) - m) * (std::fabs(g[i]) - m);
    }
    return num / den;
  };
  std::vector<std::vector<float>> grads;
  SyntheticGradients(high).generate(0, grads);
  const double ac_high = autocorr(grads[0]);
  SyntheticGradients(low).generate(0, grads);
  const double ac_low = autocorr(grads[0]);
  EXPECT_GT(ac_high, 0.5);
  EXPECT_LT(ac_low, 0.2);
}

TEST(SyntheticGrad, HeavyTailEnergyConcentration) {
  // With tail_sigma ~ 1.6, the top 10% of coordinates should hold most of
  // the energy (the premise of sparsification).
  SyntheticGradients source(small_config());
  std::vector<std::vector<float>> grads;
  source.generate(0, grads);
  auto& g = grads[0];
  std::vector<double> energy(g.size());
  double total = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    energy[i] = static_cast<double>(g[i]) * g[i];
    total += energy[i];
  }
  std::sort(energy.rbegin(), energy.rend());
  double top = 0.0;
  for (std::size_t i = 0; i < energy.size() / 10; ++i) top += energy[i];
  EXPECT_GT(top / total, 0.7);
}

TEST(Vnmse, ZeroForExactSum) {
  std::vector<std::vector<float>> grads{{1.0f, 2.0f}, {3.0f, 4.0f}};
  std::vector<std::span<const float>> views;
  for (auto& g : grads) views.emplace_back(g.data(), g.size());
  const std::vector<float> exact{4.0f, 6.0f};
  EXPECT_DOUBLE_EQ(
      vnmse(exact, std::span<const std::span<const float>>(views)), 0.0);
}

TEST(Vnmse, NormalizedScale) {
  std::vector<std::vector<float>> grads{{2.0f, 0.0f}};
  std::vector<std::span<const float>> views;
  for (auto& g : grads) views.emplace_back(g.data(), g.size());
  const std::vector<float> est{1.0f, 0.0f};  // error 1, ref 4
  EXPECT_DOUBLE_EQ(
      vnmse(est, std::span<const std::span<const float>>(views)), 0.25);
}

TEST(MeasureVnmse, BaselineFp32IsEssentiallyExact) {
  SyntheticGradients source(small_config());
  BaselineConfig config;
  config.dimension = source.dimension();
  config.world_size = 4;
  config.comm_precision = Precision::kFp32;
  AggregationPipeline c(make_baseline_codec(config));
  const auto report = measure_vnmse(c, source, 3);
  EXPECT_LT(report.mean, 1e-10);
  EXPECT_EQ(report.rounds, 3);
  EXPECT_DOUBLE_EQ(report.mean_bits_per_coordinate, 32.0);
}

TEST(MeasureVnmse, Fp16SmallButNonzero) {
  SyntheticGradients source(small_config());
  BaselineConfig config;
  config.dimension = source.dimension();
  config.world_size = 4;
  config.comm_precision = Precision::kFp16;
  AggregationPipeline c(make_baseline_codec(config));
  const auto report = measure_vnmse(c, source, 3);
  EXPECT_GT(report.mean, 0.0);
  EXPECT_LT(report.mean, 1e-4);
}

}  // namespace
}  // namespace gcs::core
