// Tests for quant/quantize: ranges, level bounds, unbiasedness, decode.
#include "quant/quantize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "numeric/precision.h"
#include "oracles.h"

namespace gcs {
namespace {

TEST(QuantRange, ComputeRange) {
  const std::vector<float> x{0.5f, -1.0f, 2.0f};
  const auto r = compute_range(x);
  EXPECT_EQ(r.lo, -1.0f);
  EXPECT_EQ(r.hi, 2.0f);
  EXPECT_EQ(r.width(), 3.0f);
}

TEST(QuantRange, EmptyIsZero) {
  const auto r = compute_range({});
  EXPECT_EQ(r.lo, 0.0f);
  EXPECT_EQ(r.hi, 0.0f);
}

TEST(Quantize, LevelsWithinBounds) {
  Rng rng(1);
  std::vector<float> x(1000);
  for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
  const auto range = compute_range(x);
  std::vector<std::uint16_t> levels(x.size());
  for (unsigned q : {1u, 2u, 4u, 8u}) {
    quantize_stochastic(x, range, q, rng, levels);
    for (auto l : levels) EXPECT_LT(l, 1u << q);
  }
}

TEST(Quantize, NearestIsDeterministicAndClose) {
  const std::vector<float> x{0.0f, 0.26f, 0.74f, 1.0f};
  std::vector<std::uint16_t> levels(4);
  quantize_nearest(x, {0.0f, 1.0f}, 2, levels);
  // Grid {0, 1/3, 2/3, 1}.
  EXPECT_EQ(levels[0], 0);
  EXPECT_EQ(levels[1], 1);
  EXPECT_EQ(levels[2], 2);
  EXPECT_EQ(levels[3], 3);
}

TEST(Quantize, RoundTripErrorBoundedByStep) {
  Rng rng(2);
  std::vector<float> x(2000);
  for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
  const auto range = compute_range(x);
  std::vector<std::uint16_t> levels(x.size());
  for (unsigned q : {2u, 4u, 8u}) {
    quantize_stochastic(x, range, q, rng, levels);
    const float step = range.width() / static_cast<float>((1u << q) - 1u);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float back = dequantize_level(levels[i], range, q);
      EXPECT_LE(std::fabs(back - x[i]), step * 1.0001f) << "q=" << q;
    }
  }
}

TEST(Quantize, MoreBitsLessError) {
  Rng rng(3);
  std::vector<float> x(5000);
  for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
  const auto range = compute_range(x);
  std::vector<std::uint16_t> levels(x.size());
  double prev_mse = 1e300;
  for (unsigned q : {2u, 4u, 8u}) {
    quantize_stochastic(x, range, q, rng, levels);
    double err = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double diff = dequantize_level(levels[i], range, q) - x[i];
      err += diff * diff;
    }
    EXPECT_LT(err, prev_mse);
    prev_mse = err;
  }
}

TEST(Quantize, DegenerateRangeMapsToLo) {
  const std::vector<float> x{5.0f, 5.0f};
  std::vector<std::uint16_t> levels(2);
  Rng rng(4);
  quantize_stochastic(x, {5.0f, 5.0f}, 4, rng, levels);
  EXPECT_EQ(levels[0], 0);
  EXPECT_EQ(dequantize_level(levels[0], {5.0f, 5.0f}, 4), 5.0f);
}

TEST(Dequantize, SpanMatchesScalar) {
  const std::vector<std::uint16_t> levels{0, 7, 15};
  std::vector<float> out(3);
  dequantize(levels, {-1.0f, 1.0f}, 4, out);
  EXPECT_EQ(out[0], -1.0f);
  EXPECT_NEAR(out[2], 1.0f, 1e-6f);
  EXPECT_NEAR(out[1], -1.0f + 2.0f * 7.0f / 15.0f, 1e-6f);
}

TEST(DequantizeLevelSum, MatchesSumOfDequantizedLevels) {
  const QuantRange range{-2.0f, 3.0f};
  const unsigned q = 4;
  const std::vector<std::uint32_t> levels{3, 9, 15, 0};
  double expected = 0.0;
  std::int64_t level_sum = 0;
  for (auto l : levels) {
    expected += dequantize_level(l, range, q);
    level_sum += l;
  }
  const float got = dequantize_level_sum(
      level_sum, static_cast<unsigned>(levels.size()), range, q);
  EXPECT_NEAR(got, expected, 1e-4f);
}

// Property: the homomorphic decode of aggregated stochastic levels is an
// unbiased estimate of the true sum (shared range across "workers").
TEST(Quantize, AggregatedDecodeIsUnbiased) {
  Rng rng(5);
  const unsigned q = 4;
  const QuantRange range{-4.0f, 4.0f};
  const std::vector<float> values{-2.5f, 0.3f, 1.9f, 3.2f};
  double true_sum = 0.0;
  for (float v : values) true_sum += v;
  double acc = 0.0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    std::int64_t level_sum = 0;
    for (float v : values) {
      level_sum += stochastic_level(v, range.lo, range.hi, q,
                                    rng.next_float());
    }
    acc += dequantize_level_sum(level_sum,
                                static_cast<unsigned>(values.size()), range,
                                q);
  }
  EXPECT_NEAR(acc / trials, true_sum, 0.02);
}

}  // namespace
}  // namespace gcs
