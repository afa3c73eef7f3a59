// Tests for the sched/ subsystem: layer-aligned bucket planning, the
// backward gradient-ready event source (including the legality proof that
// a bucket never needs a layer that is still pending at its ready time),
// the encode worker pool's determinism, the backward-overlap cost charge
// and the bucket/chunk autotuner.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "core/factory.h"
#include "sched/autotune.h"
#include "sched/backward_source.h"
#include "sched/bucket_planner.h"
#include "sched/encode_worker_pool.h"
#include "sim/cost_model.h"
#include "sim/workload.h"
#include "tensor/layout.h"

namespace gcs::sched {
namespace {

TEST(BucketPlanner, BackwardOrderAndFullCoverage) {
  const auto layout = sim::bert_large_layout();
  const BucketPlan plan = plan_buckets(layout);
  ASSERT_GT(plan.num_buckets(), 1u);
  std::size_t covered = 0;
  for (std::size_t k = 0; k < plan.num_buckets(); ++k) {
    const Bucket& b = plan.bucket(k);
    covered += b.grad_elems;
    // Contiguity: a bucket is a run of whole layers.
    std::size_t elems = 0;
    for (std::size_t l = b.first_layer; l < b.first_layer + b.layer_count;
         ++l) {
      elems += layout.layer(l).size();
    }
    EXPECT_EQ(elems, b.grad_elems);
    EXPECT_EQ(layout.offset(b.first_layer), b.grad_offset);
    if (k > 0) {
      // Backward order: bucket k sits immediately *before* bucket k-1 in
      // the flat tensor (backprop walks the model back to front).
      EXPECT_EQ(b.grad_end(), plan.bucket(k - 1).grad_offset);
    } else {
      EXPECT_EQ(b.grad_end(), layout.total_size());
    }
  }
  EXPECT_EQ(covered, layout.total_size());
}

TEST(BucketPlanner, FirstBucketIsSmall) {
  // DDP's first-bucket special case: the first (earliest-ready) bucket is
  // capped well below the steady-state cap so the wire starts early.
  const auto layout = sim::bert_large_layout();
  const BucketPlan plan = plan_buckets(layout);
  const Bucket& first = plan.bucket(0);
  const Bucket& steady = plan.bucket(plan.num_buckets() / 2);
  EXPECT_LT(first.grad_elems * 4,
            BucketPlannerConfig::kDefaultBucketBytes / 2);
  EXPECT_GT(steady.grad_elems, first.grad_elems);
}

TEST(BucketPlanner, RuntTailFoldsIntoPredecessor) {
  // A model whose leading layer is a sliver must not produce a runt final
  // bucket (it would pay a whole collective latency for almost nothing).
  const ModelLayout layout({LayerSpec{"tiny", 8, 1},
                            LayerSpec{"big0", 1024, 1024},
                            LayerSpec{"big1", 1024, 1024}});
  BucketPlannerConfig config;
  config.bucket_bytes = 1024 * 1024 * 4;  // one layer per bucket
  config.first_bucket_bytes = 1024 * 1024 * 4;
  const BucketPlan plan = plan_buckets(layout, config);
  ASSERT_EQ(plan.num_buckets(), 2u);
  // The tiny first layer rides with "big0" in the last-ready bucket.
  EXPECT_EQ(plan.bucket(1).first_layer, 0u);
  EXPECT_EQ(plan.bucket(1).layer_count, 2u);
}

TEST(BucketPlanner, OversizedLayerFormsItsOwnBucket) {
  const ModelLayout layout({LayerSpec{"huge", 4096, 4096},
                            LayerSpec{"small", 64, 64}});
  BucketPlannerConfig config;
  config.bucket_bytes = 1024;  // far below either layer
  config.first_bucket_bytes = 1024;
  const BucketPlan plan = plan_buckets(layout, config);
  ASSERT_EQ(plan.num_buckets(), 2u);
  EXPECT_EQ(plan.bucket(0).layer_count, 1u);  // "small" (ready first)
  EXPECT_EQ(plan.bucket(1).layer_count, 1u);  // "huge", unsplit
  EXPECT_EQ(plan.bucket(1).grad_elems, std::size_t{4096} * 4096);
}

TEST(BucketPlanner, SingleLayerLayoutDegeneratesToOneBucket) {
  const ModelLayout layout({LayerSpec{"flat", 1 << 20, 1}});
  const BucketPlan plan = plan_buckets(layout);
  EXPECT_EQ(plan.num_buckets(), 1u);
  EXPECT_EQ(plan.bucket(0).grad_elems, layout.total_size());
}

TEST(BucketPlanner, ChunkPlanTilesPayloadAtAnyGranularity) {
  const auto layout = sim::vgg19_layout();
  const BucketPlan plan = plan_buckets(layout);
  for (std::size_t payload : {std::size_t{layout.total_size()} * 2,
                              std::size_t{layout.total_size()} / 2 / 8 * 8,
                              std::size_t{4096}, std::size_t{8}}) {
    for (std::size_t granularity : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
      if (payload % granularity != 0) continue;
      const auto chunks = plan.chunk_plan(payload, granularity);
      // check_chunk_plan ran inside; re-verify the invariants here.
      std::size_t pos = 0;
      for (const auto& c : chunks) {
        EXPECT_EQ(c.offset, pos);
        EXPECT_EQ(c.offset % granularity, 0u);
        pos = c.end();
      }
      EXPECT_EQ(pos, payload);
      EXPECT_LE(chunks.size(), plan.num_buckets());
    }
  }
}

TEST(BucketPlanner, ChunkPlanIsProportionalToBuckets) {
  // On an uncompressed payload (2 bytes per coordinate), every bucket
  // boundary maps exactly to a chunk boundary.
  const ModelLayout layout({LayerSpec{"a", 1000, 1},
                            LayerSpec{"b", 3000, 1},
                            LayerSpec{"c", 2000, 1}});
  BucketPlannerConfig config;
  config.bucket_bytes = 3000 * 4;
  config.first_bucket_bytes = 2000 * 4;
  const BucketPlan plan = plan_buckets(layout, config);
  ASSERT_EQ(plan.num_buckets(), 3u);
  const auto chunks = plan.chunk_plan(6000 * 2, 2);
  ASSERT_EQ(chunks.size(), 3u);
  // Ascending chunk j covers bucket num_buckets-1-j.
  EXPECT_EQ(chunks[0].size, 1000u * 2);  // layer "a" (last ready)
  EXPECT_EQ(chunks[1].size, 3000u * 2);  // layer "b"
  EXPECT_EQ(chunks[2].size, 2000u * 2);  // layer "c" (first ready)
  EXPECT_EQ(plan.bucket_of_chunk(chunks[0], 6000 * 2), 2u);
  EXPECT_EQ(plan.bucket_of_chunk(chunks[1], 6000 * 2), 1u);
  EXPECT_EQ(plan.bucket_of_chunk(chunks[2], 6000 * 2), 0u);
}

TEST(BucketPlanner, MergedChunkGatesOnItsLatestReadyBucket) {
  // Tiny payloads collapse bucket boundaries under granularity
  // alignment; the merged chunk must map to the LATEST-ready bucket it
  // contains, or a scheduler would start it before those layers'
  // gradients exist.
  const ModelLayout layout({LayerSpec{"a", 2, 1}, LayerSpec{"b", 2, 1},
                            LayerSpec{"c", 2, 1}});
  BucketPlannerConfig config;
  config.bucket_bytes = 8;
  config.first_bucket_bytes = 8;
  const BucketPlan plan = plan_buckets(layout, config);
  ASSERT_EQ(plan.num_buckets(), 3u);
  // payload 8, granularity 4: the bucket-2 boundary (8*2/6 = 2.67 -> 0)
  // collapses; chunk [0,4) holds coordinates of buckets 2 AND 1.
  const auto chunks = plan.chunk_plan(8, 4);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(plan.bucket_of_chunk(chunks[0], 8), 2u);  // latest ready wins
  // Chunk [4,8) still overlaps the tail of bucket 1's proportional range
  // (5.33 > 4), so it too gates on bucket 1, not bucket 0.
  EXPECT_EQ(plan.bucket_of_chunk(chunks[1], 8), 1u);
  // A fully-aligned payload keeps the 1:1 mapping.
  const auto exact = plan.chunk_plan(12, 2);
  ASSERT_EQ(exact.size(), 3u);
  EXPECT_EQ(plan.bucket_of_chunk(exact[0], 12), 2u);
  EXPECT_EQ(plan.bucket_of_chunk(exact[1], 12), 1u);
  EXPECT_EQ(plan.bucket_of_chunk(exact[2], 12), 0u);
}

TEST(BackwardSource, EventsReplayInReverseLayerOrder) {
  const auto layout = sim::bert_large_layout();
  const BackwardSource source(layout, 0.1);
  const auto& events = source.events();
  ASSERT_EQ(events.size(), layout.num_layers());
  EXPECT_EQ(events.front().layer, layout.num_layers() - 1);
  EXPECT_EQ(events.back().layer, 0u);
  double prev = 0.0;
  for (const auto& e : events) {
    EXPECT_GT(e.time_s, prev);  // strictly increasing (no empty layers)
    prev = e.time_s;
  }
  EXPECT_NEAR(prev, 0.1, 1e-12);  // the full pass sums to backward time
}

TEST(BackwardSource, BucketReadyWhenItsLastLayerIs) {
  // The legality proof: every layer of bucket k is ready by
  // bucket_ready_s(k), so encoding bucket k at that time never touches a
  // gradient that does not exist yet — and earlier-ready buckets gate
  // strictly before later ones.
  const auto layout = sim::bert_large_layout();
  const BackwardSource source(layout, 1.0);
  const BucketPlan plan = plan_buckets(layout);
  double prev = 0.0;
  for (std::size_t k = 0; k < plan.num_buckets(); ++k) {
    const Bucket& b = plan.bucket(k);
    const double ready = source.bucket_ready_s(b);
    for (std::size_t l = b.first_layer; l < b.first_layer + b.layer_count;
         ++l) {
      EXPECT_LE(source.layer_ready_s(l), ready) << "bucket " << k;
    }
    EXPECT_GE(ready, prev) << "bucket " << k;
    prev = ready;
  }
  EXPECT_NEAR(prev, 1.0, 1e-9);  // the last bucket waits for layer 0
}

TEST(EncodeWorkerPool, TasksLandInTheirSlots) {
  // Determinism rule: the pool decides when, never what — every slot gets
  // the value its task computes, independent of claim order.
  EncodeWorkerPool pool(4);
  for (int repeat = 0; repeat < 20; ++repeat) {
    std::vector<int> slots(64, -1);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&slots, i] { slots[static_cast<std::size_t>(i)] = i * i; });
    }
    pool.wait_idle();
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(slots[static_cast<std::size_t>(i)], i * i);
    }
  }
}

TEST(EncodeWorkerPool, WaitIdleRethrowsTaskError) {
  EncodeWorkerPool pool(2);
  std::atomic<int> done{0};
  pool.submit([] { throw Error("boom"); });
  pool.submit([&done] { ++done; });
  EXPECT_THROW(pool.wait_idle(), Error);
  // The pool survives an error: subsequent batches run normally.
  pool.submit([&done] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 2);
}

TEST(EncodeWorkerPool, RejectsZeroWorkers) {
  EXPECT_THROW(EncodeWorkerPool(0), Error);
}

TEST(BackwardOverlapCost, Fp16HidesCommUnderBackward) {
  // The headline: the dense baseline, which gains nothing from
  // compress<->comm chunking (no compression compute), gains a lot from
  // backward<->comm bucketing — DDP's entire design point.
  const sim::CostModel cost;
  const auto w = sim::make_bert_large_workload();
  const auto mono = cost.round_for_spec(w, "fp16");
  const auto bucketed = cost.bucketed_round_for_spec(w, "fp16", 0, 2);
  EXPECT_GT(bucketed.chunks, 1u);
  EXPECT_GT(bucketed.overlap_saved_s, 0.01);  // tens of ms at BERT scale
  EXPECT_LT(bucketed.total(), mono.total());
}

TEST(BackwardOverlapCost, SavingNeverExceedsHideableTime) {
  const sim::CostModel cost;
  const auto w = sim::make_bert_large_workload();
  for (const char* spec : {"fp16", "topk:b=8", "topkc:b=8",
                           "thc:q=4:b=4:sat:partial", "powersgd:r=4"}) {
    for (int workers : {1, 2, 4}) {
      const auto t = cost.bucketed_round_for_spec(w, spec, 0, workers);
      // The bucketed schedule can hide comm and streamable encode under
      // the backward pass, but never more than the serial schedule spends
      // outside the critical path's irreducible parts.
      EXPECT_GE(t.overlap_saved_s, 0.0) << spec;
      EXPECT_LT(t.overlap_saved_s, t.compute_s + t.compress_s + t.comm_s)
          << spec;
      EXPECT_GT(t.total(), 0.0) << spec;
    }
  }
}

TEST(BackwardOverlapCost, SelectionBarrierLimitsTopK) {
  // The paper's warning, quantified: TopK's whole-vector selection gates
  // every bucket, so its backward-overlap saving stays near the
  // compress<->comm saving, while the barrier-free fp16 baseline hides a
  // large slice of its comm. Relative to its own comm volume, fp16 must
  // gain strictly more.
  const sim::CostModel cost;
  const auto w = sim::make_bert_large_workload();
  const auto fp16 = cost.bucketed_round_for_spec(w, "fp16", 0, 2);
  const auto topk = cost.bucketed_round_for_spec(w, "topk:b=8", 0, 2);
  EXPECT_GT(fp16.overlap_saved_s / fp16.comm_s,
            topk.overlap_saved_s / topk.comm_s);
}

TEST(BackwardOverlapCost, SpecGrammarSelectsBucketedCharge) {
  const sim::CostModel cost;
  const auto w = sim::make_bert_large_workload();
  const auto by_api = cost.bucketed_round_for_spec(w, "topkc:b=8", 0, 2);
  const auto by_spec =
      cost.round_for_spec(w, "topkc:b=8:buckets=layer:workers=2");
  EXPECT_DOUBLE_EQ(by_api.total(), by_spec.total());
  EXPECT_EQ(by_api.chunks, by_spec.chunks);
  const auto sized = cost.round_for_spec(
      w, "topkc:b=8:buckets=layer:workers=2:bucket=8388608");
  EXPECT_GT(sized.chunks, by_spec.chunks);  // smaller cap, more buckets
}

TEST(BackwardOverlapCost, BackwardFracKnobShiftsTheHideableWindow) {
  // A larger backward share means a longer window to hide comm under;
  // the fp16 baseline (pure comm hiding) must save monotonically more.
  // The spec knob and the API argument must agree, and the default must
  // stay the 2/3 rule.
  const sim::CostModel cost;
  const auto w = sim::make_bert_large_workload();
  const auto low = cost.bucketed_round_for_spec(w, "fp16", 0, 2, 0.34);
  const auto mid = cost.bucketed_round_for_spec(w, "fp16", 0, 2);
  const auto high = cost.bucketed_round_for_spec(w, "fp16", 0, 2, 0.9);
  EXPECT_LT(low.overlap_saved_s, mid.overlap_saved_s);
  EXPECT_LT(mid.overlap_saved_s, high.overlap_saved_s);
  const auto by_spec = cost.round_for_spec(
      w, "fp16:buckets=layer:workers=2:backward_frac=0.9");
  EXPECT_DOUBLE_EQ(by_spec.total(), high.total());
  const auto by_default =
      cost.round_for_spec(w, "fp16:buckets=layer:workers=2");
  EXPECT_DOUBLE_EQ(by_default.total(), mid.total());
}

TEST(Autotune, PicksArgminAndRecordsSweep) {
  const sim::CostModel cost;
  const auto w = sim::make_bert_large_workload();
  const AutotuneChoice choice = autotune_sizes(
      cost, w, core::parse_scheme("thc:q=4:b=4:sat:partial", w.layout, 4),
      2);
  EXPECT_EQ(choice.sweep.size(),
            autotune_chunk_grid().size() + autotune_bucket_grid().size());
  // The chosen sizes really are the grid minima.
  for (const auto& point : choice.sweep) {
    if (point.bucketed) {
      EXPECT_GE(point.total_s, choice.bucketed_total_s - 1e-12);
    } else {
      EXPECT_GE(point.total_s, choice.chunked_total_s - 1e-12);
    }
  }
  EXPECT_LE(choice.chunked_total_s, choice.mono_total_s);
  EXPECT_GT(choice.buckets, 0u);
}

TEST(Autotune, WorkloadForLayoutScalesWithParameters) {
  const auto small = workload_for_layout(
      ModelLayout({LayerSpec{"m", 128, 128}}), "small");
  const auto big = workload_for_layout(
      ModelLayout({LayerSpec{"m", 1024, 1024}}), "big");
  EXPECT_GT(big.fp32_compute_seconds, small.fp32_compute_seconds);
  EXPECT_EQ(big.name, "big");
}

}  // namespace
}  // namespace gcs::sched
