// Tests for core/topkc_compressor: consensus selection, wire budget
// b = 16(J C/d + 1/C), locality advantage, permutation ablation, EF.
#include "core/topkc_compressor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/synthetic_grad.h"
#include "core/vnmse.h"
#include "tensor/layout.h"

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

TEST(TopKCConfig, JForBitsMatchesPaperFormula) {
  // b = 16 (J C / d + 1 / C)  =>  J = (b/16 - 1/C) d / C.
  const std::size_t d = 64 * 64 * 16;  // 65536
  // b=8, C=64: J = (0.5 - 1/64)*65536/64 = 496.
  EXPECT_EQ(TopKCConfig::j_for_bits(d, 64, 8.0), 496u);
  // b below the metadata floor clamps to 1.
  EXPECT_EQ(TopKCConfig::j_for_bits(d, 64, 0.01), 1u);
}

TEST(TopKCConfig, PaperChunkSizeRule) {
  EXPECT_EQ(TopKCConfig::default_chunk_size(8.0), 64u);
  EXPECT_EQ(TopKCConfig::default_chunk_size(2.0), 64u);
  EXPECT_EQ(TopKCConfig::default_chunk_size(0.5), 128u);
}

TEST(TopKC, PathIsAllReduce) {
  TopKCConfig config;
  config.dimension = 640;
  config.world_size = 2;
  config.chunk_size = 64;
  config.num_top_chunks = 2;
  AggregationPipeline c(make_topkc_codec(config));
  EXPECT_EQ(c.codec().path(), AggregationPath::kAllReduce);
  EXPECT_EQ(c.codec().name(), "TopKC");
}

TEST(TopKC, MeasuredBitsMatchFormula) {
  const std::size_t d = 65536;
  TopKCConfig config;
  config.dimension = d;
  config.world_size = 4;
  config.chunk_size = 64;
  config.num_top_chunks = TopKCConfig::j_for_bits(d, 64, 8.0);
  config.error_feedback = false;
  AggregationPipeline c(make_topkc_codec(config));
  const auto grads = random_grads(4, d, 1);
  std::vector<float> out(d);
  const auto views = views_of(grads);
  const auto stats = c.aggregate(views, out, 0);
  EXPECT_NEAR(stats.bits_per_coordinate(d), 8.0, 0.1);
  // Metadata (norm round) is 16/C bits/coordinate of it.
  EXPECT_NEAR(8.0 * static_cast<double>(stats.metadata_bytes) / d,
              16.0 / 64.0, 1e-6);
}

TEST(TopKC, AggregatesChunksWithLargestGlobalNorm) {
  // Worker gradients that agree on which chunk is hot: that chunk must be
  // selected and summed; cold chunks must be zero.
  const std::size_t d = 256, c_size = 16;
  TopKCConfig config;
  config.dimension = d;
  config.world_size = 2;
  config.chunk_size = c_size;
  config.num_top_chunks = 1;
  config.error_feedback = false;
  AggregationPipeline c(make_topkc_codec(config));
  std::vector<std::vector<float>> grads(2, std::vector<float>(d, 0.01f));
  for (std::size_t i = 3 * c_size; i < 4 * c_size; ++i) {
    grads[0][i] = 1.0f;
    grads[1][i] = 2.0f;
  }
  std::vector<float> out(d);
  const auto views = views_of(grads);
  c.aggregate(views, out, 0);
  for (std::size_t i = 0; i < d; ++i) {
    if (i >= 3 * c_size && i < 4 * c_size) {
      EXPECT_NEAR(out[i], 3.0f, 0.01f) << i;
    } else {
      EXPECT_EQ(out[i], 0.0f) << i;
    }
  }
}

TEST(TopKC, ConsensusEvenWhenWorkersDisagree) {
  // Workers prefer different chunks; the chunk with the largest *summed*
  // norm wins for everyone (that is the consensus property).
  const std::size_t d = 64, c_size = 8;
  TopKCConfig config;
  config.dimension = d;
  config.world_size = 2;
  config.chunk_size = c_size;
  config.num_top_chunks = 1;
  config.error_feedback = false;
  AggregationPipeline c(make_topkc_codec(config));
  std::vector<std::vector<float>> grads(2, std::vector<float>(d, 0.0f));
  // Worker 0: chunk 1 has norm^2 = 8*4 = 32. Worker 1: chunk 2 norm^2 =
  // 8*9=72. Summed: chunk 1 = 32, chunk 2 = 72 -> chunk 2 wins.
  for (std::size_t i = c_size; i < 2 * c_size; ++i) grads[0][i] = 2.0f;
  for (std::size_t i = 2 * c_size; i < 3 * c_size; ++i) grads[1][i] = 3.0f;
  std::vector<float> out(d);
  const auto views = views_of(grads);
  c.aggregate(views, out, 0);
  EXPECT_EQ(out[c_size], 0.0f);          // chunk 1 dropped
  EXPECT_NEAR(out[2 * c_size], 3.0f, 0.01f);  // chunk 2 kept
}

TEST(TopKC, PartialLastChunkHandled) {
  TopKCConfig config;
  config.dimension = 70;  // 4 chunks of 16 + one of 6
  config.world_size = 2;
  config.chunk_size = 16;
  config.num_top_chunks = 5;
  config.error_feedback = false;
  AggregationPipeline c(make_topkc_codec(config));
  const auto grads = random_grads(2, 70, 3);
  std::vector<float> out(70);
  const auto views = views_of(grads);
  c.aggregate(views, out, 0);  // must not crash / corrupt
  for (std::size_t i = 0; i < 70; ++i) {
    const double sum = grads[0][i] + grads[1][i];
    EXPECT_NEAR(out[i], sum, std::fabs(sum) / 256.0 + 1e-2) << i;
  }
}

TEST(TopKC, LocalityBeatsPermutationOnStructuredGradients) {
  // Table 4's claim: on gradients with spatial locality, TopKC has lower
  // vNMSE than TopKC over permuted coordinates.
  SyntheticGradConfig sgc;
  sgc.layout = make_transformer_like_layout(1 << 16);
  sgc.world_size = 4;
  sgc.locality = 0.97;
  SyntheticGradients source(sgc);
  const std::size_t d = source.dimension();

  TopKCConfig base;
  base.dimension = d;
  base.world_size = 4;
  base.chunk_size = 64;
  base.num_top_chunks = TopKCConfig::j_for_bits(d, 64, 2.0);
  base.error_feedback = false;
  AggregationPipeline plain(make_topkc_codec(base));
  base.permute = true;
  AggregationPipeline permuted(make_topkc_codec(base));
  EXPECT_EQ(permuted.codec().name(), "TopKC Permutation");

  const auto r_plain = measure_vnmse(plain, source, 5);
  const auto r_perm = measure_vnmse(permuted, source, 5);
  EXPECT_LT(r_plain.mean, r_perm.mean * 0.9);
}

TEST(TopKC, PermutationRoundTripsCoordinates) {
  // With all chunks selected, the permuted pipeline must still return the
  // plain sum (permutation is inverted on decode).
  const std::size_t d = 128;
  TopKCConfig config;
  config.dimension = d;
  config.world_size = 2;
  config.chunk_size = 16;
  config.num_top_chunks = 8;  // everything
  config.error_feedback = false;
  config.permute = true;
  AggregationPipeline c(make_topkc_codec(config));
  const auto grads = random_grads(2, d, 5);
  std::vector<float> out(d);
  const auto views = views_of(grads);
  c.aggregate(views, out, 0);
  for (std::size_t i = 0; i < d; ++i) {
    const double sum = grads[0][i] + grads[1][i];
    EXPECT_NEAR(out[i], sum, std::fabs(sum) / 256.0 + 1e-2);
  }
}

TEST(TopKC, ErrorFeedbackRecoversDroppedChunks) {
  const std::size_t d = 64, c_size = 8;
  TopKCConfig config;
  config.dimension = d;
  config.world_size = 1;
  config.chunk_size = c_size;
  config.num_top_chunks = 1;
  config.error_feedback = true;
  AggregationPipeline c(make_topkc_codec(config));
  // Chunk 0 slightly hotter than chunk 1: round 1 sends chunk 0; chunk 1
  // accumulates and wins round 2.
  std::vector<std::vector<float>> grads(1, std::vector<float>(d, 0.0f));
  for (std::size_t i = 0; i < c_size; ++i) grads[0][i] = 1.0f;
  for (std::size_t i = c_size; i < 2 * c_size; ++i) grads[0][i] = 0.8f;
  std::vector<float> out(d);
  const auto views = views_of(grads);
  c.aggregate(views, out, 0);
  EXPECT_GT(out[0], 0.5f);
  EXPECT_EQ(out[c_size], 0.0f);
  c.aggregate(views, out, 1);
  EXPECT_NEAR(out[c_size], 1.6f, 0.02f);  // 0.8 + 0.8 from memory
}

TEST(TopKC, MoreBitsLowerVnmse) {
  SyntheticGradConfig sgc;
  sgc.layout = make_transformer_like_layout(1 << 15);
  sgc.world_size = 2;
  SyntheticGradients source(sgc);
  const std::size_t d = source.dimension();
  double prev = 1e9;
  for (double b : {0.5, 2.0, 8.0}) {
    TopKCConfig config;
    config.dimension = d;
    config.world_size = 2;
    config.chunk_size = TopKCConfig::default_chunk_size(b);
    config.num_top_chunks =
        TopKCConfig::j_for_bits(d, config.chunk_size, b);
    config.error_feedback = false;
    AggregationPipeline c(make_topkc_codec(config));
    const auto report = measure_vnmse(c, source, 3);
    EXPECT_LT(report.mean, prev) << b;
    prev = report.mean;
  }
}

}  // namespace
}  // namespace gcs::core
