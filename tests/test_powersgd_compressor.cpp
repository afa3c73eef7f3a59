// Tests for core/powersgd_compressor: rank behaviour, payload accounting,
// warm-start improvement, EF semantics, exact vector transmission.
#include "core/powersgd_compressor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/vnmse.h"

namespace gcs::core {
namespace {

std::vector<std::vector<float>> random_grads(int n, std::size_t d,
                                             std::uint64_t seed) {
  std::vector<std::vector<float>> grads(n, std::vector<float>(d));
  for (int w = 0; w < n; ++w) {
    Rng rng(derive_seed(seed, w));
    for (auto& v : grads[w]) v = static_cast<float>(rng.next_gaussian());
  }
  return grads;
}

std::vector<std::span<const float>> views_of(
    const std::vector<std::vector<float>>& grads) {
  std::vector<std::span<const float>> views;
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());
  return views;
}

ModelLayout two_matrix_layout() {
  return ModelLayout({{"w0", 32, 24}, {"b0", 32, 1}, {"w1", 16, 32}});
}

TEST(PowerSgd, PathAndName) {
  PowerSgdConfig config;
  config.layout = two_matrix_layout();
  config.world_size = 2;
  config.rank = 4;
  AggregationPipeline c(make_powersgd_codec(config));
  EXPECT_EQ(c.codec().path(), AggregationPath::kAllReduce);
  EXPECT_EQ(c.codec().name(), "PowerSGD-4");
}

TEST(PowerSgd, PayloadMatchesRankFormula) {
  // Low-rank layers contribute 16 r (rows + cols) bits; the bias vector
  // travels dense in FP16.
  PowerSgdConfig config;
  config.layout = two_matrix_layout();
  config.world_size = 2;
  config.rank = 4;
  config.error_feedback = false;
  AggregationPipeline c(make_powersgd_codec(config));
  const std::size_t d = config.layout.total_size();
  const auto grads = random_grads(2, d, 1);
  std::vector<float> out(d);
  const auto views = views_of(grads);
  const auto stats = c.aggregate(views, out, 0);
  const std::size_t expected =
      2 * (4 * (32 + 24)) +  // w0: P (32x4) + Q (24x4) in fp16
      2 * 32 +               // b0 dense fp16
      2 * (4 * (16 + 32));   // w1
  EXPECT_EQ(stats.payload_bytes, expected);
}

TEST(PowerSgd, BiasVectorsTransmittedExactly) {
  PowerSgdConfig config;
  config.layout = ModelLayout({{"w", 16, 16}, {"b", 8, 1}});
  config.world_size = 2;
  config.rank = 2;
  config.error_feedback = false;
  AggregationPipeline c(make_powersgd_codec(config));
  const std::size_t d = config.layout.total_size();
  std::vector<std::vector<float>> grads(2, std::vector<float>(d, 0.0f));
  // Bias region: offsets 256..263.
  for (std::size_t i = 256; i < 264; ++i) {
    grads[0][i] = 1.5f;
    grads[1][i] = 2.5f;
  }
  std::vector<float> out(d);
  const auto views = views_of(grads);
  c.aggregate(views, out, 0);
  for (std::size_t i = 256; i < 264; ++i) {
    EXPECT_NEAR(out[i], 4.0f, 0.01f);
  }
}

TEST(PowerSgd, ExactForRankDeficientGradients) {
  // Identical rank-1 gradients with rank >= 1 reconstruct (near) exactly.
  const std::size_t rows = 20, cols = 12;
  PowerSgdConfig config;
  config.layout = ModelLayout({{"w", rows, cols}});
  config.world_size = 2;
  config.rank = 2;
  config.error_feedback = false;
  AggregationPipeline c(make_powersgd_codec(config));
  Rng rng(3);
  std::vector<float> u(rows), v(cols);
  for (auto& x : u) x = static_cast<float>(rng.next_gaussian());
  for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
  std::vector<std::vector<float>> grads(
      2, std::vector<float>(rows * cols));
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      grads[0][i * cols + j] = u[i] * v[j];
      grads[1][i * cols + j] = u[i] * v[j];
    }
  }
  std::vector<float> out(rows * cols);
  const auto views = views_of(grads);
  c.aggregate(views, out, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], 2.0f * grads[0][i],
                0.02f * std::fabs(grads[0][i]) + 0.02f)
        << i;
  }
}

TEST(PowerSgd, HigherRankLowerError) {
  PowerSgdConfig config;
  config.layout = ModelLayout({{"w", 48, 48}});
  config.world_size = 2;
  config.error_feedback = false;
  const auto grads = random_grads(2, 48 * 48, 5);
  const auto views = views_of(grads);
  double prev = 1e9;
  for (std::size_t r : {1u, 4u, 16u}) {
    config.rank = r;
    AggregationPipeline c(make_powersgd_codec(config));
    std::vector<float> out(48 * 48);
    c.aggregate(views, out, 0);
    const double err =
        vnmse(out, std::span<const std::span<const float>>(views));
    EXPECT_LT(err, prev) << r;
    prev = err;
  }
}

TEST(PowerSgd, WarmStartImprovesOverRounds) {
  // Feeding the same gradient repeatedly: the power iteration converges
  // to the dominant subspace and the error drops monotonically-ish.
  PowerSgdConfig config;
  config.layout = ModelLayout({{"w", 40, 40}});
  config.world_size = 2;
  config.rank = 4;
  config.error_feedback = false;
  AggregationPipeline c(make_powersgd_codec(config));
  const auto grads = random_grads(2, 1600, 7);
  const auto views = views_of(grads);
  std::vector<float> out(1600);
  c.aggregate(views, out, 0);
  const double first =
      vnmse(out, std::span<const std::span<const float>>(views));
  for (int r = 1; r < 8; ++r) c.aggregate(views, out, r);
  const double later =
      vnmse(out, std::span<const std::span<const float>>(views));
  EXPECT_LT(later, first);
}

TEST(PowerSgd, ErrorFeedbackAccumulatesResidual) {
  // With EF on, cumulative aggregates track cumulative true sums far
  // better than without (residual is re-fed).
  PowerSgdConfig config;
  config.layout = ModelLayout({{"w", 32, 32}});
  config.world_size = 2;
  config.rank = 1;
  const std::size_t d = 1024;
  config.error_feedback = true;
  AggregationPipeline c_ef(make_powersgd_codec(config));
  config.error_feedback = false;
  AggregationPipeline c_no(make_powersgd_codec(config));
  std::vector<double> cum_true(d, 0.0), cum_ef(d, 0.0), cum_no(d, 0.0);
  std::vector<float> out(d);
  for (int r = 0; r < 25; ++r) {
    auto grads = random_grads(2, d, 100 + r);
    const auto views = views_of(grads);
    for (std::size_t i = 0; i < d; ++i) {
      cum_true[i] += grads[0][i] + grads[1][i];
    }
    c_ef.aggregate(views, out, r);
    for (std::size_t i = 0; i < d; ++i) cum_ef[i] += out[i];
    c_no.aggregate(views, out, r);
    for (std::size_t i = 0; i < d; ++i) cum_no[i] += out[i];
  }
  double err_ef = 0.0, err_no = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    err_ef += (cum_ef[i] - cum_true[i]) * (cum_ef[i] - cum_true[i]);
    err_no += (cum_no[i] - cum_true[i]) * (cum_no[i] - cum_true[i]);
  }
  EXPECT_LT(err_ef, err_no);
}

TEST(PowerSgd, ResetRestoresInitialState) {
  PowerSgdConfig config;
  config.layout = ModelLayout({{"w", 16, 16}});
  config.world_size = 2;
  config.rank = 2;
  config.error_feedback = false;
  AggregationPipeline c(make_powersgd_codec(config));
  const auto grads = random_grads(2, 256, 9);
  const auto views = views_of(grads);
  std::vector<float> first(256), again(256);
  c.aggregate(views, first, 0);
  c.aggregate(views, again, 1);  // warm start shifts the result
  c.codec().reset();
  std::vector<float> after_reset(256);
  c.aggregate(views, after_reset, 0);
  EXPECT_EQ(first, after_reset);
}

TEST(PowerSgd, TinyRankOneLayersGoDense) {
  // A layout of only vectors: everything is transmitted exactly; the
  // aggregate equals the true sum up to fp16.
  PowerSgdConfig config;
  config.layout = ModelLayout({{"b0", 10, 1}, {"b1", 6, 1}});
  config.world_size = 3;
  config.rank = 4;
  config.error_feedback = false;
  AggregationPipeline c(make_powersgd_codec(config));
  const auto grads = random_grads(3, 16, 11);
  std::vector<float> out(16);
  const auto views = views_of(grads);
  c.aggregate(views, out, 0);
  for (std::size_t i = 0; i < 16; ++i) {
    const double sum = grads[0][i] + grads[1][i] + grads[2][i];
    EXPECT_NEAR(out[i], sum, std::fabs(sum) / 256.0 + 1e-2);
  }
}

}  // namespace
}  // namespace gcs::core
