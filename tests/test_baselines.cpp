// Tests for core/baselines: exactness of FP32, bounded loss of FP16, wire
// accounting matching the paper's b values.
#include "core/baselines.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/vnmse.h"

namespace gcs::core {
namespace {

std::vector<std::vector<float>> random_grads(int n, std::size_t d,
                                             std::uint64_t seed,
                                             float scale = 1.0f) {
  std::vector<std::vector<float>> grads(n, std::vector<float>(d));
  for (int w = 0; w < n; ++w) {
    Rng rng(derive_seed(seed, w));
    for (auto& v : grads[w]) {
      v = scale * static_cast<float>(rng.next_gaussian());
    }
  }
  return grads;
}

std::vector<std::span<const float>> views_of(
    const std::vector<std::vector<float>>& grads) {
  std::vector<std::span<const float>> views;
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());
  return views;
}

TEST(Fp32Baseline, BitsPerCoordinateIs32) {
  BaselineConfig config;
  config.dimension = 100;
  config.world_size = 4;
  config.comm_precision = Precision::kFp32;
  AggregationPipeline c(make_baseline_codec(config));
  const auto grads = random_grads(4, 100, 1);
  std::vector<float> out(100);
  const auto views = views_of(grads);
  const auto stats = c.aggregate(views, out, 0);
  EXPECT_DOUBLE_EQ(stats.bits_per_coordinate(100), 32.0);
  EXPECT_EQ(c.codec().name(), "Baseline FP32");
  EXPECT_EQ(c.codec().path(), AggregationPath::kAllReduce);
}

TEST(Fp16Baseline, BitsPerCoordinateIs16) {
  BaselineConfig config;
  config.dimension = 64;
  config.world_size = 2;
  config.comm_precision = Precision::kFp16;
  AggregationPipeline c(make_baseline_codec(config));
  const auto grads = random_grads(2, 64, 2);
  std::vector<float> out(64);
  const auto views = views_of(grads);
  const auto stats = c.aggregate(views, out, 0);
  EXPECT_DOUBLE_EQ(stats.bits_per_coordinate(64), 16.0);
  EXPECT_EQ(c.codec().name(), "Baseline FP16");
}

TEST(Fp32Baseline, ExactUpToRingOrdering) {
  BaselineConfig config;
  config.dimension = 333;
  config.world_size = 4;
  config.comm_precision = Precision::kFp32;
  AggregationPipeline c(make_baseline_codec(config));
  const auto grads = random_grads(4, 333, 3);
  std::vector<float> out(333);
  const auto views = views_of(grads);
  c.aggregate(views, out, 0);
  for (std::size_t i = 0; i < 333; ++i) {
    double sum = 0.0;
    for (const auto& g : grads) sum += g[i];
    EXPECT_NEAR(out[i], sum, 1e-4);
  }
}

TEST(Fp16Baseline, SmallRelativeError) {
  BaselineConfig config;
  config.dimension = 1000;
  config.world_size = 4;
  config.comm_precision = Precision::kFp16;
  AggregationPipeline c(make_baseline_codec(config));
  const auto grads = random_grads(4, 1000, 4);
  std::vector<float> out(1000);
  const auto views = views_of(grads);
  c.aggregate(views, out, 0);
  const double err =
      vnmse(out, std::span<const std::span<const float>>(views));
  // FP16's negligible-degradation claim: vNMSE ~ (2^-11)^2 scale.
  EXPECT_LT(err, 1e-5);
  EXPECT_GT(err, 0.0);
}

TEST(Fp16Baseline, LessAccurateThanFp32) {
  const auto grads = random_grads(4, 500, 5, 100.0f);
  const auto views = views_of(grads);
  std::vector<float> out16(500), out32(500);
  BaselineConfig c16{500, 4, Precision::kFp16, false};
  BaselineConfig c32{500, 4, Precision::kFp32, false};
  AggregationPipeline(make_baseline_codec(c16)).aggregate(views, out16, 0);
  AggregationPipeline(make_baseline_codec(c32)).aggregate(views, out32, 0);
  const auto span_views = std::span<const std::span<const float>>(views);
  EXPECT_GT(vnmse(out16, span_views), vnmse(out32, span_views));
}

TEST(Baselines, TreeMatchesRingForFp32) {
  const auto grads = random_grads(3, 64, 6);
  const auto views = views_of(grads);
  std::vector<float> ring_out(64), tree_out(64);
  BaselineConfig ring{64, 3, Precision::kFp32, false};
  BaselineConfig tree{64, 3, Precision::kFp32, true};
  AggregationPipeline(make_baseline_codec(ring)).aggregate(views, ring_out, 0);
  AggregationPipeline(make_baseline_codec(tree)).aggregate(views, tree_out, 0);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(ring_out[i], tree_out[i], 1e-4);
  }
}

TEST(Baselines, SingleWorkerPassThrough) {
  BaselineConfig config{10, 1, Precision::kFp32, false};
  AggregationPipeline c(make_baseline_codec(config));
  const auto grads = random_grads(1, 10, 7);
  std::vector<float> out(10);
  const auto views = views_of(grads);
  c.aggregate(views, out, 0);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(out[i], grads[0][i]);
}

TEST(Baselines, DeterministicAcrossCalls) {
  BaselineConfig config{128, 4, Precision::kFp16, false};
  AggregationPipeline c(make_baseline_codec(config));
  const auto grads = random_grads(4, 128, 8);
  const auto views = views_of(grads);
  std::vector<float> out1(128), out2(128);
  c.aggregate(views, out1, 0);
  c.aggregate(views, out2, 0);
  EXPECT_EQ(out1, out2);
}

}  // namespace
}  // namespace gcs::core
