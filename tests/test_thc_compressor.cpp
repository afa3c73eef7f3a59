// Tests for core/thc_compressor: homomorphic aggregation, rotation modes,
// saturation vs wide-bit aggregation, unbiasedness, clip accounting.
#include "core/thc_compressor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "comm/group.h"
#include "common/check.h"
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

ThcConfig base_config(std::size_t d, int n) {
  ThcConfig config;
  config.dimension = d;
  config.world_size = n;
  config.q = 4;
  config.b = 4;
  config.saturation = true;
  config.rotation = RotationMode::kPartial;
  config.shared_memory_bytes = 256;  // small blocks for small test vectors
  return config;
}

TEST(ThcConfig, BitValidation) {
  ThcConfig c = base_config(64, 4);
  c.b = 8;
  c.saturation = true;  // saturation requires b == q
  EXPECT_FALSE(c.valid_bits());
  EXPECT_THROW(make_thc_codec(c), std::logic_error);
  c.saturation = false;
  EXPECT_TRUE(c.valid_bits());
  EXPECT_NO_THROW(make_thc_codec(c));
}

TEST(Thc, WideModeNeedsHeadroom) {
  ThcConfig c = base_config(64, 32);  // log2(32) = 5 > 8-4
  c.b = 8;
  c.saturation = false;
  EXPECT_THROW(make_thc_codec(c), std::logic_error);
}

TEST(ThcConfig, BlocksThatSplitWireBytesAreRefused) {
  // A shared-memory budget under 16 bytes makes 2-float rotation blocks:
  // at b = 2 each block is half a byte, so neighbouring ranges would
  // share wire bytes. Construction refuses it with a typed error.
  ThcConfig c = base_config(4096, 4);
  c.q = c.b = 2;
  c.shared_memory_bytes = 8;
  EXPECT_THROW(make_thc_codec(c), Error);
  c.q = c.b = 4;  // 2 floats x 4 bits: one whole byte per block
  EXPECT_NO_THROW(make_thc_codec(c));
}

TEST(Thc, TinyDimensionsPadLevelsToWholeBytes) {
  // d <= 2 under rotation is one block of one or two coordinates; at
  // b < 8 its levels are padded to a byte of lanes. The payload is still
  // ceil(d * b / 8) bytes and the sum is still approximated.
  for (const RotationMode rotation :
       {RotationMode::kPartial, RotationMode::kFull}) {
    for (const std::size_t d : {std::size_t{1}, std::size_t{2}}) {
      for (const unsigned b : {2u, 4u}) {
        ThcConfig config = base_config(d, 2);
        config.rotation = rotation;
        config.q = config.b = b;
        AggregationPipeline c(make_thc_codec(config));
        const auto grads = random_grads(2, d, 5);
        std::vector<float> out(d);
        const auto views = views_of(grads);
        const auto stats = c.aggregate(views, out, 0);
        EXPECT_EQ(stats.payload_bytes, 1u) << "d=" << d << " b=" << b;
        for (std::size_t i = 0; i < d; ++i) {
          EXPECT_NEAR(out[i], grads[0][i] + grads[1][i], 3.0f) << i;
        }
      }
    }
  }
}

TEST(Thc, PathAndName) {
  AggregationPipeline c(make_thc_codec(base_config(128, 4)));
  EXPECT_EQ(c.codec().path(), AggregationPath::kAllReduce);
  EXPECT_NE(c.codec().name().find("THC"), std::string::npos);
  EXPECT_NE(c.codec().name().find("Sat"), std::string::npos);
  EXPECT_NE(c.codec().name().find("partial"), std::string::npos);
}

TEST(Thc, MeasuredBitsMatchQ) {
  const std::size_t d = 4096;
  auto config = base_config(d, 4);
  config.shared_memory_bytes = 4096;  // realistic block:metadata ratio
  AggregationPipeline c(make_thc_codec(config));
  const auto grads = random_grads(4, d, 1);
  std::vector<float> out(d);
  const auto views = views_of(grads);
  const auto stats = c.aggregate(views, out, 0);
  // Payload is exactly q bits/coordinate; metadata (ranges) is small.
  EXPECT_NEAR(8.0 * static_cast<double>(stats.payload_bytes) / d, 4.0,
              1e-9);
  EXPECT_LT(static_cast<double>(stats.metadata_bytes),
            0.2 * static_cast<double>(stats.payload_bytes));
}

class ThcModesTest
    : public ::testing::TestWithParam<std::tuple<RotationMode, bool>> {};

TEST_P(ThcModesTest, AggregateApproximatesTrueSum) {
  const auto [rotation, saturation] = GetParam();
  const std::size_t d = 2000;  // non-power-of-two: exercises padding
  ThcConfig config = base_config(d, 4);
  config.rotation = rotation;
  config.saturation = saturation;
  if (!saturation) config.b = 8;
  AggregationPipeline c(make_thc_codec(config));
  const auto grads = random_grads(4, d, 7);
  std::vector<float> out(d);
  const auto views = views_of(grads);
  c.aggregate(views, out, 0);
  const double err =
      vnmse(out, std::span<const std::span<const float>>(views));
  // q = 4 stochastic quantization alone contributes vNMSE ~ 0.05 on iid
  // Gaussian inputs; saturation clipping can add a few more points (the
  // paper's "other setups may affect this conclusion" caveat).
  EXPECT_LT(err, 0.25) << "rotation=" << static_cast<int>(rotation)
                       << " sat=" << saturation;
  if (!saturation) {
    EXPECT_LT(err, 0.10) << "wide mode should never clip";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ThcModesTest,
    ::testing::Combine(::testing::Values(RotationMode::kNone,
                                         RotationMode::kPartial,
                                         RotationMode::kFull),
                       ::testing::Bool()));

TEST(Thc, HigherQLowerError) {
  const std::size_t d = 4096;
  const auto grads = random_grads(4, d, 11);
  const auto views = views_of(grads);
  double prev = 1e9;
  for (unsigned q : {2u, 4u, 8u}) {
    ThcConfig config = base_config(d, 4);
    config.q = q;
    config.b = q;
    AggregationPipeline c(make_thc_codec(config));
    std::vector<float> out(d);
    c.aggregate(views, out, 0);
    const double err =
        vnmse(out, std::span<const std::span<const float>>(views));
    EXPECT_LT(err, prev) << q;
    prev = err;
  }
}

TEST(Thc, RotationHelpsHeavyTailedGradients) {
  // A gradient with one huge spike wastes the quantization range; RHT
  // spreads the spike and shrinks per-chunk ranges -> lower error. This
  // is THC's core design premise.
  const std::size_t d = 4096;
  std::vector<std::vector<float>> grads(4, std::vector<float>(d));
  for (int w = 0; w < 4; ++w) {
    Rng rng(derive_seed(13, w));
    for (auto& v : grads[w]) {
      v = 0.01f * static_cast<float>(rng.next_gaussian());
    }
    grads[w][w * 10] = 5.0f;  // spikes
  }
  const auto views = views_of(grads);
  double errs[2];
  int i = 0;
  for (RotationMode mode : {RotationMode::kNone, RotationMode::kFull}) {
    ThcConfig config = base_config(d, 4);
    config.rotation = mode;
    config.q = config.b = 2;  // coarse quantization amplifies the effect
    AggregationPipeline c(make_thc_codec(config));
    std::vector<float> out(d);
    c.aggregate(views, out, 0);
    errs[i++] = vnmse(out, std::span<const std::span<const float>>(views));
  }
  EXPECT_LT(errs[1], errs[0] * 0.8) << "full rotation should beat none";
}

TEST(Thc, SaturationRarelyClipsAfterRotation) {
  // The paper's argument for b = q: post-rotation values concentrate
  // around zero, so saturated aggregation almost never clips for n = 4.
  const std::size_t d = 8192;
  ThcConfig config = base_config(d, 4);
  config.rotation = RotationMode::kFull;
  AggregationPipeline c(make_thc_codec(config));
  const auto grads = random_grads(4, d, 17);
  std::vector<float> out(d);
  const auto views = views_of(grads);
  const auto stats = c.aggregate(views, out, 0);
  EXPECT_GT(stats.sat.additions, 0u);
  // iid Gaussian inputs are the adversarial case for cancellation (real
  // gradients are cross-worker correlated); a few percent is the ceiling.
  EXPECT_LT(stats.sat.clip_rate(), 0.05);
}

TEST(Thc, WideModeNeverClips) {
  const std::size_t d = 1024;
  ThcConfig config = base_config(d, 4);
  config.saturation = false;
  config.b = 8;
  AggregationPipeline c(make_thc_codec(config));
  const auto grads = random_grads(4, d, 19, 10.0f);
  std::vector<float> out(d);
  const auto views = views_of(grads);
  const auto stats = c.aggregate(views, out, 0);
  EXPECT_EQ(stats.sat.clips, 0u);
}

TEST(Thc, StochasticQuantizationIsUnbiasedOverRounds) {
  // Average the aggregate over many rounds with fixed inputs: converges
  // to the true sum (rotation uses fresh shared randomness per round).
  // Wide mode isolates the quantizer: saturation clipping is biased by
  // construction, plain summation is not.
  const std::size_t d = 512;
  ThcConfig config = base_config(d, 2);
  config.saturation = false;
  config.b = 8;
  AggregationPipeline c(make_thc_codec(config));
  const auto grads = random_grads(2, d, 23);
  const auto views = views_of(grads);
  std::vector<double> mean(d, 0.0);
  std::vector<float> out(d);
  const int rounds = 300;
  for (int r = 0; r < rounds; ++r) {
    c.aggregate(views, out, r);
    for (std::size_t i = 0; i < d; ++i) mean[i] += out[i] / rounds;
  }
  double err = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    const double sum = grads[0][i] + grads[1][i];
    err += (mean[i] - sum) * (mean[i] - sum);
    ref += sum * sum;
  }
  EXPECT_LT(err / ref, 2e-3);
}

TEST(Thc, DeterministicGivenRound) {
  const std::size_t d = 256;
  AggregationPipeline c(make_thc_codec(base_config(d, 4)));
  const auto grads = random_grads(4, d, 29);
  const auto views = views_of(grads);
  std::vector<float> out1(d), out2(d);
  c.aggregate(views, out1, 5);
  c.aggregate(views, out2, 5);
  EXPECT_EQ(out1, out2);
  c.aggregate(views, out2, 6);
  EXPECT_NE(out1, out2);
}

TEST(Thc, Q2B2Works) {
  const std::size_t d = 1024;
  ThcConfig config = base_config(d, 4);
  config.q = config.b = 2;
  AggregationPipeline c(make_thc_codec(config));
  const auto grads = random_grads(4, d, 31);
  std::vector<float> out(d);
  const auto views = views_of(grads);
  const auto stats = c.aggregate(views, out, 0);
  EXPECT_NEAR(8.0 * static_cast<double>(stats.payload_bytes) / d, 2.0, 1e-9);
  const double err =
      vnmse(out, std::span<const std::span<const float>>(views));
  // q = 2 over iid Gaussians is the regime where the paper itself reports
  // significant degradation (Figure 2, BERT b=q=2): coarse levels plus
  // saturated sums lose most per-round precision. Sanity-bound only.
  EXPECT_LT(err, 1.2);
}

TEST(Thc, StageGuardsHoldAfterARoundFilledTheScratch) {
  // Round scratch is the codec's and outlives a round, so after round 0
  // the stochastic draws and level sums of some earlier round are always
  // there to read. The session's own stage state must still refuse an
  // out-of-order call with a typed error, round after round.
  const std::size_t d = 256;
  auto codec = make_thc_codec(base_config(d, 2));
  const auto grads = random_grads(2, d, 41);
  const auto views = views_of(grads);
  for (std::uint64_t round = 0; round < 2; ++round) {
    auto session = codec->begin_round(views, round);
    WireStage stage;
    ASSERT_TRUE(session->next_stage(stage));  // range-lo
    ByteBuffer levels(16);
    EXPECT_THROW(session->encode_range(0, 0, levels), Error);
    std::vector<float> out(d);
    RoundStats stats;
    EXPECT_THROW(session->finish(out, stats), Error);
    // Complete the round, so the next one starts on filled scratch. The
    // reduced payloads stay alive until finish(), as the CodecRound
    // contract requires (THC decodes the levels there).
    std::vector<ByteBuffer> reduced;
    do {
      std::vector<ByteBuffer> payloads{session->encode(0), session->encode(1)};
      reduced.push_back(comm::local_ring_all_reduce(payloads, *stage.op));
      session->absorb_reduced(reduced.back());
    } while (session->next_stage(stage));
    session->finish(out, stats);
    EXPECT_THROW(session->encode(0), Error);
  }
}

}  // namespace
}  // namespace gcs::core
