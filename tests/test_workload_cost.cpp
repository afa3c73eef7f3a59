// Tests for sim/workload and sim/cost_model: layouts at paper scale and
// the qualitative orderings the paper's tables exhibit.
#include <gtest/gtest.h>

#include "common/check.h"
#include "core/thc_compressor.h"
#include "sim/cost_model.h"
#include "sim/workload.h"

namespace gcs::sim {
namespace {

using core::RotationMode;

TEST(Workload, BertLargeParameterCount) {
  const auto w = make_bert_large_workload();
  // BERT-large MLM: ~336M parameters (paper rounds to 345M with the tied
  // decoder); accept the 330-350M band.
  EXPECT_GT(w.dimension(), 330'000'000u);
  EXPECT_LT(w.dimension(), 350'000'000u);
  EXPECT_EQ(w.name, "BERT");
}

TEST(Workload, Vgg19ParameterCount) {
  const auto w = make_vgg19_workload();
  // VGG19: 143.67M parameters.
  EXPECT_GT(w.dimension(), 143'000'000u);
  EXPECT_LT(w.dimension(), 144'500'000u);
}

TEST(Workload, Vgg19FcDominates) {
  const auto layout = vgg19_layout();
  std::size_t fc = 0;
  for (const auto& l : layout.layers()) {
    if (l.name.rfind("fc", 0) == 0) fc += l.size();
  }
  EXPECT_GT(static_cast<double>(fc) / layout.total_size(), 0.8);
}

TEST(CostModel, Table2Shape) {
  // FP16 comm beats FP32 comm; TF32 training beats FP32 training.
  const CostModel cost;
  for (const auto& w : {make_bert_large_workload(), make_vgg19_workload()}) {
    const double fp32_fp32 =
        cost.baseline_round(w, Precision::kFp32, Precision::kFp32).total();
    const double fp32_fp16 =
        cost.baseline_round(w, Precision::kFp32, Precision::kFp16).total();
    const double tf32_fp16 =
        cost.baseline_round(w, Precision::kTf32, Precision::kFp16).total();
    EXPECT_LT(fp32_fp16, fp32_fp32) << w.name;
    EXPECT_LT(tf32_fp16, fp32_fp16) << w.name;
  }
}

TEST(CostModel, Table2Magnitudes) {
  // Rounds/sec in the paper's ballpark (shape tolerance ~30%):
  // BERT FP32+FP32 ~ 2.36, FP16 comm ~ 3.17; VGG ~ 6.37 / 8.73.
  const CostModel cost;
  const auto bert = make_bert_large_workload();
  const double bert32 =
      cost.baseline_round(bert, Precision::kFp32, Precision::kFp32)
          .rounds_per_second();
  const double bert16 =
      cost.baseline_round(bert, Precision::kFp32, Precision::kFp16)
          .rounds_per_second();
  EXPECT_NEAR(bert32, 2.36, 0.8);
  EXPECT_NEAR(bert16, 3.17, 1.0);
  const auto vgg = make_vgg19_workload();
  const double vgg16 =
      cost.baseline_round(vgg, Precision::kFp32, Precision::kFp16)
          .rounds_per_second();
  EXPECT_NEAR(vgg16, 8.73, 2.5);
}

TEST(CostModel, Table5Shape_TopKCBeatsTopK) {
  const CostModel cost;
  for (const auto& w : {make_bert_large_workload(), make_vgg19_workload()}) {
    for (double b : {0.5, 2.0, 8.0}) {
      const double topk = cost.topk_round(w, b).total();
      const double topkc =
          cost.topkc_round(w, b, b < 1.0 ? 128 : 64).total();
      EXPECT_LT(topkc, topk) << w.name << " b=" << b;
    }
    // TopKC advantage grows with b (all-gather vs ring gap) — up to ~2x.
    const double ratio8 = cost.topk_round(w, 8.0).total() /
                          cost.topkc_round(w, 8.0, 64).total();
    EXPECT_GT(ratio8, 1.2);
    EXPECT_LT(ratio8, 3.0);
  }
}

TEST(CostModel, Table5Shape_ThroughputDecreasesWithBits) {
  const CostModel cost;
  const auto w = make_bert_large_workload();
  EXPECT_LT(cost.topk_round(w, 0.5).total(), cost.topk_round(w, 2.0).total());
  EXPECT_LT(cost.topk_round(w, 2.0).total(), cost.topk_round(w, 8.0).total());
  EXPECT_LT(cost.topkc_round(w, 0.5, 128).total(),
            cost.topkc_round(w, 8.0, 64).total());
}

TEST(CostModel, Table6Shape_TopKOverheadAroundTenPercent) {
  const CostModel cost;
  for (const auto& w : {make_bert_large_workload(), make_vgg19_workload()}) {
    for (double b : {0.5, 2.0, 8.0}) {
      const auto t = cost.topk_round(w, b);
      EXPECT_GT(t.compress_fraction(), 0.03) << w.name << " b=" << b;
      EXPECT_LT(t.compress_fraction(), 0.25) << w.name << " b=" << b;
    }
  }
}

TEST(CostModel, TopKCOverheadIsNegligible) {
  const CostModel cost;
  const auto w = make_bert_large_workload();
  const auto t = cost.topkc_round(w, 2.0, 64);
  EXPECT_LT(t.compress_fraction(), 0.05);
}

TEST(CostModel, Table8Shape_ThcOrdering) {
  const CostModel cost;
  for (const auto& w : {make_bert_large_workload(), make_vgg19_workload()}) {
    const unsigned full = cost.rotation_iters(w, RotationMode::kFull);
    const unsigned partial = cost.rotation_iters(w, RotationMode::kPartial);
    const unsigned none = cost.rotation_iters(w, RotationMode::kNone);
    EXPECT_GT(full, partial);
    EXPECT_EQ(none, 0u);
    // Saturation (b=4) beats the wide baseline (b=8) at equal rotation.
    EXPECT_LT(cost.thc_round(w, 4, full).total(),
              cost.thc_round(w, 8, full).total());
    // Partial rotation beats full; none beats partial (pure compute).
    EXPECT_LT(cost.thc_round(w, 4, partial).total(),
              cost.thc_round(w, 4, full).total());
    EXPECT_LT(cost.thc_round(w, 4, none).total(),
              cost.thc_round(w, 4, partial).total());
    // b=2 beats b=4.
    EXPECT_LT(cost.thc_round(w, 2, partial).total(),
              cost.thc_round(w, 4, partial).total());
  }
}

TEST(CostModel, Table9Shape_PowerSgdRankCost) {
  const CostModel cost;
  for (const auto& w : {make_bert_large_workload(), make_vgg19_workload()}) {
    double prev = 0.0;
    for (std::size_t r : {1u, 4u, 16u, 64u}) {
      const double t = cost.powersgd_round(w, r).total();
      EXPECT_GT(t, prev) << w.name << " r=" << r;
      prev = t;
    }
    // r=64 costs roughly 1.5-3x of r=1 (the paper sees ~1.8-1.9x).
    const double ratio = cost.powersgd_round(w, 64).total() /
                         cost.powersgd_round(w, 1).total();
    EXPECT_GT(ratio, 1.3) << w.name;
    EXPECT_LT(ratio, 4.0) << w.name;
  }
}

TEST(CostModel, PowerSgdBitsScaleWithRank) {
  const CostModel cost;
  const auto w = make_bert_large_workload();
  const double b1 = cost.powersgd_bits(w, 1);
  const double b64 = cost.powersgd_bits(w, 64);
  EXPECT_LT(b1, 0.5);
  EXPECT_GT(b64, b1 * 10);
  EXPECT_LT(b64, 16.0);  // far below FP16
}

TEST(CostModel, PowerSgdOrthoDominatesAtHighRank) {
  // The paper profiles orthogonalization at ~40-47% of round time, r=64.
  const CostModel cost;
  const auto w = make_bert_large_workload();
  const auto t = cost.powersgd_round(w, 64);
  EXPECT_GT(t.compress_s / t.total(), 0.25);
}

TEST(CostModel, SpecDispatchMatchesDirectCalls) {
  const CostModel cost;
  const auto w = make_vgg19_workload();
  EXPECT_DOUBLE_EQ(
      cost.round_for_spec(w, "fp16").total(),
      cost.baseline_round(w, Precision::kFp32, Precision::kFp16).total());
  EXPECT_DOUBLE_EQ(cost.round_for_spec(w, "topk:b=2").total(),
                   cost.topk_round(w, 2.0).total());
  EXPECT_DOUBLE_EQ(cost.round_for_spec(w, "topkc:b=2").total(),
                   cost.topkc_round(w, 2.0, 64).total());
  EXPECT_DOUBLE_EQ(
      cost.round_for_spec(w, "thc:q=4:b=4:sat:partial").total(),
      cost.thc_round(w, 4, cost.rotation_iters(w, RotationMode::kPartial))
          .total());
  EXPECT_DOUBLE_EQ(cost.round_for_spec(w, "powersgd:r=16").total(),
                   cost.powersgd_round(w, 16).total());
  EXPECT_THROW(cost.round_for_spec(w, "bogus"), gcs::Error);
}

TEST(CostModel, CompressionSchemesBeatFp32Baseline) {
  // The headline sanity check: every scheme's round time is below the
  // FP32 baseline at the paper's operating points.
  const CostModel cost;
  for (const auto& w : {make_bert_large_workload(), make_vgg19_workload()}) {
    const double fp32 =
        cost.baseline_round(w, Precision::kFp32, Precision::kFp32).total();
    for (const char* spec :
         {"topk:b=2", "topkc:b=2", "thc:q=4:b=4:sat:partial",
          "powersgd:r=4"}) {
      EXPECT_LT(cost.round_for_spec(w, spec).total(), fp32)
          << w.name << " " << spec;
    }
  }
}

TEST(CostModel, RerendezvousStallChargesLostRoundPlusWindowPlusMesh) {
  // The elastic recovery stall (DESIGN.md "Fault tolerance"): losing the
  // interrupted round's work dominates for heavy schemes, the rejoin
  // window is a fixed floor, and the mesh term grows with the survivor
  // count. TTA curves consume this via with_recovery_stall.
  const auto w = make_bert_large_workload();
  const CostModel cost;  // paper testbed, n = 4
  const double round = cost.round_for_spec(w, "topkc:b=8").total();
  const double window = cost.constants().rejoin_window_s;

  const double stall3 = cost.rerendezvous_stall_s(w, "topkc:b=8", 3);
  EXPECT_GT(stall3, round + window);  // lost round + window + mesh > both
  // The mesh term is per-link: more survivors, more connections.
  const double stall2 = cost.rerendezvous_stall_s(w, "topkc:b=8", 2);
  EXPECT_GT(stall3, stall2);
  // Mesh formation at loopback-scale latency is tiny next to the window.
  EXPECT_LT(stall3 - stall2, window);
  // Shrinking beyond the old world is nonsense and must be loud.
  EXPECT_THROW((void)cost.rerendezvous_stall_s(w, "topkc:b=8", 5),
               std::logic_error);
  // A heavier per-round spec pays a bigger lost-round term.
  const double fp32_stall = cost.rerendezvous_stall_s(w, "fp32", 3);
  const double fp32_round = cost.round_for_spec(w, "fp32").total();
  EXPECT_NEAR(fp32_stall - stall3, fp32_round - round, 1e-9);
}

}  // namespace
}  // namespace gcs::sim
