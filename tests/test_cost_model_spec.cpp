// Tests that sim::CostModel charges exactly the experiment the factory
// builds: one parser (core/factory.h) reads every spec, so the charge
// table below holds bit for bit, the cost model rejects every malformed
// spec the factory rejects, and autotune and delta specs are charged at
// what actually runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.h"
#include "core/factory.h"
#include "sched/autotune.h"
#include "sim/cost_model.h"
#include "sim/workload.h"

namespace gcs::sim {
namespace {

enum Workload { kBert, kVgg };

const WorkloadSpec& workload(Workload w) {
  static const WorkloadSpec bert = make_bert_large_workload();
  static const WorkloadSpec vgg = make_vgg19_workload();
  return w == kBert ? bert : vgg;
}

struct Charge {
  Workload workload;
  const char* spec;
  double total_s;
  std::size_t chunks;
};

TEST(CostModelSpec, ChargeTableIsPinned) {
  // Recorded from the cost model's own spec reader before the factory's
  // parser replaced it: one parse must not move any charge of a spec
  // both readers accepted.
  const std::vector<Charge> table = {
      {kBert, "fp32", 0.40900924639999997, 1},
      {kBert, "fp16", 0.27451962320000001, 1},
      {kBert, "fp32:tf32", 0.39990924639999997, 1},
      {kBert, "fp16:tf32", 0.26541962320000001, 1},
      {kBert, "fp16:tree", 0.27451962320000001, 1},
      {kBert, "topk:b=8", 0.35519839712000001, 1},
      {kBert, "topk:b=2", 0.20389757102, 1},
      {kBert, "topk:k=1000000", 0.15706396232, 1},
      {kBert, "topk:b=8:noef", 0.35519839712000001, 1},
      {kBert, "topkc:b=8", 0.21001035161000003, 1},
      {kBert, "topkc:b=2", 0.15894631865000003, 1},
      {kBert, "topkc:b=0.5", 0.14608836849000004, 1},
      {kBert, "topkc:b=2:c=256", 0.15880837661000002, 1},
      {kBert, "topkc:b=2:perm", 0.15894631865000003, 1},
      {kBert, "topkc:b=8:noef", 0.21001035161000003, 1},
      {kBert, "thc:q=4:b=4:sat:partial", 0.18353222024960003, 1},
      {kBert, "thc:q=4:b=8:full", 0.26907008175360003, 1},
      {kBert, "thc:q=2:b=2:norot", 0.16359568608000002, 1},
      {kBert, "thc:q=4", 0.18353222024960003, 1},
      {kBert, "powersgd:r=4", 0.17889814061439999, 1},
      {kBert, "powersgd:r=16:noef", 0.21017824581760003, 1},
      {kBert, "fp16:chunk=1048576", 0.29374962319999998, 642},
      {kBert, "thc:q=4:b=4:sat:partial:chunk=4194304", 0.17817174696179514, 41},
      {kBert, "topk:b=8:chunk=65536", 0.4097378284519041, 5131},
      {kBert, "fp16:buckets=layer", 0.19097200165565353, 51},
      {kBert, "topkc:b=8:buckets=layer:bucket=4194304:workers=2",
       0.21630493884000002, 294},
      {kBert,
       "thc:q=4:b=4:sat:partial:buckets=layer:workers=4:backward_frac=0.5",
       0.17524809439999939, 51},
      {kBert, "powersgd:r=4:buckets=layer:bucket=33554432:backward_frac=0.9",
       0.17960209097565996, 51},
      {kBert, "fp16:fabric=socket:elastic=on", 0.27451962320000001, 1},
      {kBert, "topkc:b=8:buckets=size:chunk=1048576", 0.21849867743379423, 311},
      {kVgg, "fp16", 0.10749689599999999, 1},
      {kVgg, "topk:b=2", 0.077311775599999993, 1},
      {kVgg, "topkc:b=2:c=256", 0.058071046400000007, 1},
      {kVgg, "thc:q=4:b=8:full", 0.1143771368576, 1},
      {kVgg, "powersgd:r=4", 0.055267199065600008, 1},
      {kVgg, "topk:b=8:chunk=65536", 0.16526858504915642, 2193},
      {kVgg, "fp16:buckets=layer", 0.095572764038260496, 9},
      {kVgg, "powersgd:r=4:buckets=layer:bucket=33554432:backward_frac=0.9",
       0.055213413853202775, 8},
  };
  const CostModel cost;
  for (const Charge& c : table) {
    const RoundTime t = cost.round_for_spec(workload(c.workload), c.spec);
    EXPECT_EQ(t.total(), c.total_s) << c.spec;
    EXPECT_EQ(t.chunks, c.chunks) << c.spec;
  }
  // An explicit chunk size overrides a spec without chunk=.
  const RoundTime t = cost.round_for_spec(workload(kBert),
                                          "thc:q=4:b=4:sat:partial", 1 << 20);
  EXPECT_EQ(t.total(), 0.181649502117923);
  EXPECT_EQ(t.chunks, 161u);
}

TEST(CostModelSpec, RejectsEverySpecTheFactoryRejects) {
  const ModelLayout small({LayerSpec{"a", 100, 1}, LayerSpec{"b", 60, 1}});
  const CostModel cost;
  for (const char* spec : {
           "topk:b=8:chunk=1MB",          // not a byte count
           "topkc:b=8:c=abc",             // not a number
           "topkc:b=8:buckets=layers",    // not a bucket mode
           "topk",                        // no size
           "thc:q=4:b=4:rotation=full",   // unknown option
           "powersgd:r=4:backward_frac=2",  // not a fraction
           "topk:k=1000:b=8",             // two sizes
           "topk:b=0",                    // no budget
           "thc:q=4:b=4:full:partial",    // two rotations
           "thc:q=4:b=4:sat:wide",        // two aggregation modes
           "powersgd:r=2.5",              // not an integer
           "fp16:chunk=-4096",            // negative byte count
           "fp16:autotune:chunk=65536",   // autotune picks the size
           "bogus",                       // unknown kind
       }) {
    EXPECT_THROW(core::make_pipeline(spec, small, 4), Error) << spec;
    EXPECT_THROW((void)cost.round_for_spec(workload(kBert), spec), Error)
        << spec;
    EXPECT_THROW(
        (void)cost.bucketed_round_for_spec(workload(kBert), spec, 0, 2),
        Error)
        << spec;
  }
}

TEST(CostModelSpec, RepeatedKeysAndFlagsThrowInEveryReader) {
  // No reader picks a winner: the factory and the cost model both refuse.
  const ModelLayout small({LayerSpec{"a", 100, 1}, LayerSpec{"b", 60, 1}});
  const CostModel cost;
  for (const char* spec :
       {"topk:b=8:b=2", "fp16:chunk=4096:chunk=65536", "topk:b=8:noef:noef",
        "fp16:autotune:autotune=1"}) {
    EXPECT_THROW(core::make_pipeline(spec, small, 4), Error) << spec;
    EXPECT_THROW(core::parse_pipeline_config(spec), Error) << spec;
    EXPECT_THROW((void)cost.round_for_spec(workload(kBert), spec), Error)
        << spec;
  }
}

std::size_t bucket_argmin(const CostModel& cost, const WorkloadSpec& w,
                          const std::string& scheme, int workers,
                          double backward_frac) {
  std::size_t best = 0;
  double best_s = 0.0;
  for (std::size_t bytes : sched::autotune_bucket_grid()) {
    const double s =
        cost.bucketed_round_for_spec(w, scheme, bytes, workers,
                                     backward_frac)
            .total();
    if (best == 0 || s < best_s) {
      best = bytes;
      best_s = s;
    }
  }
  return best;
}

TEST(CostModelSpec, AutotuneSweepsAtTheSpecsBackwardFrac) {
  const ModelLayout layout = bert_large_layout();
  const WorkloadSpec stand_in = sched::workload_for_layout(layout, "fp16");
  const CostModel cost;
  const std::size_t at_005 = bucket_argmin(cost, stand_in, "fp16", 2, 0.05);
  // The knob matters on this layout: the default fraction picks another
  // size, so a sweep that dropped backward_frac would fail below.
  ASSERT_NE(at_005,
            bucket_argmin(cost, stand_in, "fp16", 2,
                          sched::kBackwardFraction));
  const core::PipelineConfig pipeline = core::parse_pipeline_config(
      "fp16:buckets=layer:workers=2:autotune:backward_frac=0.05", layout, 4);
  EXPECT_EQ(pipeline.bucket_bytes, at_005);
}

TEST(CostModelSpec, AutotuneSpecIsChargedAtItsResolvedSizes) {
  const WorkloadSpec& w = workload(kBert);
  const CostModel cost;
  // Size-chunked: the charge is the charge of the chunk= the factory runs.
  const std::string chunked = "thc:q=4:b=4:sat:partial";
  const core::PipelineConfig chunk_pick =
      core::parse_pipeline_config(chunked + ":autotune", w.layout, 4);
  ASSERT_NE(chunk_pick.chunk_bytes, 0u);
  const RoundTime by_autotune = cost.round_for_spec(w, chunked + ":autotune");
  const RoundTime by_size = cost.round_for_spec(
      w, chunked + ":chunk=" + std::to_string(chunk_pick.chunk_bytes));
  EXPECT_EQ(by_autotune.total(), by_size.total());
  EXPECT_EQ(by_autotune.chunks, by_size.chunks);
  // Layer buckets: the charge is the charge of the bucket= it runs.
  const std::string bucketed = "topkc:b=8:buckets=layer:workers=2";
  const core::PipelineConfig bucket_pick =
      core::parse_pipeline_config(bucketed + ":autotune", w.layout, 4);
  const RoundTime tuned = cost.round_for_spec(w, bucketed + ":autotune");
  const RoundTime sized = cost.round_for_spec(
      w, bucketed + ":bucket=" + std::to_string(bucket_pick.bucket_bytes));
  EXPECT_EQ(tuned.total(), sized.total());
  EXPECT_EQ(tuned.chunks, sized.chunks);
}

TEST(CostModelSpec, DeltaChargesTheCodecsKAtThirtyTwoBitEntries) {
  const WorkloadSpec& w = workload(kBert);
  const CostModel cost;
  const auto d = static_cast<double>(w.dimension());
  const std::size_t by_bits = core::TopKConfig::k_for_bits(
      w.dimension(), 8.0, /*delta_indices=*/true);
  for (const auto& [spec, k] :
       {std::pair<std::string, std::size_t>{"topk:k=1000000:delta", 1000000},
        {"topk:b=8:delta", by_bits}}) {
    const auto kd = static_cast<double>(k);
    const RoundTime t = cost.round_for_spec(w, spec);
    EXPECT_EQ(t.comm_s, cost.network().all_gather_time(cost.world_size(),
                                                       4.0 * kd))
        << spec;
    EXPECT_EQ(t.compress_s,
              cost.constants().topk_select_per_coord_s * d +
                  cost.constants().scatter_add_per_coord_s * kd *
                      cost.world_size())
        << spec;
  }
  // At equal K the delta format sends 2/3 of the plain format's bytes.
  EXPECT_LT(cost.round_for_spec(w, "topk:k=1000000:delta").comm_s,
            cost.round_for_spec(w, "topk:k=1000000").comm_s);
}

}  // namespace
}  // namespace gcs::sim
