// Acceptance tests of the scheduler layer on the value path: bucketed
// (buckets=layer) aggregation is bit-identical to the single-threaded
// size-chunked pipeline for all five schemes, across world sizes 2-8, on
// the local oracle (with an encode worker pool) and on SPMD ranks over
// comm::Fabric and SocketFabric (tests/spmd_ranks.h) — and wire bytes per
// rank are unchanged by the bucket plan (it changes the schedule, never
// the traffic).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "spmd_ranks.h"
#include "tensor/layout.h"

namespace gcs::core {
namespace {

constexpr int kRounds = 2;

/// The paper's five schemes, by factory spec.
const char* kSchemes[] = {
    "fp16",                     // dense baseline (ring all-reduce)
    "topk:b=8",                 // all-gather-bound sparse
    "topkc:b=8",                // consensus sparse (two stages)
    "thc:q=4:b=4:sat:partial",  // quantized, saturating (three stages)
    "powersgd:r=2",             // low-rank (two stages)
};

std::vector<std::vector<float>> random_grads(std::size_t d, int world,
                                             std::uint64_t seed) {
  std::vector<std::vector<float>> grads(static_cast<std::size_t>(world),
                                        std::vector<float>(d));
  for (int w = 0; w < world; ++w) {
    Rng rng(derive_seed(seed, w));
    for (auto& v : grads[static_cast<std::size_t>(w)]) {
      v = static_cast<float>(rng.next_gaussian());
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

struct RunResult {
  std::vector<float> outputs;  ///< concatenated per-round outs
};

test::RoundGrads round_grads(std::size_t d, int world) {
  test::RoundGrads grads;
  for (int r = 0; r < kRounds; ++r) {
    grads.push_back(
        random_grads(d, world, 8600 + static_cast<std::uint64_t>(r)));
  }
  return grads;
}

RunResult run_rounds(AggregationPipeline& pipeline, int world) {
  const std::size_t d = pipeline.codec().dimension();
  RunResult result;
  std::vector<float> out(d);
  const test::RoundGrads grads = round_grads(d, world);
  for (int r = 0; r < kRounds; ++r) {
    const auto views = views_of(grads[static_cast<std::size_t>(r)]);
    pipeline.aggregate(std::span<const std::span<const float>>(views), out,
                       static_cast<std::uint64_t>(r));
    result.outputs.insert(result.outputs.end(), out.begin(), out.end());
  }
  return result;
}

bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// A small but genuinely multi-layer layout (make_transformer_like_layout
/// collapses to one layer at test scale, which would degenerate every
/// layer-aligned plan to a single bucket): mixed matrices and biases,
/// ~4.5K coordinates, so bucket=4096 (1024 elements) yields several
/// buckets and PowerSGD exercises both its low-rank and dense branches.
ModelLayout test_layout() {
  return ModelLayout({LayerSpec{"fc1", 48, 32}, LayerSpec{"b1", 48, 1},
                      LayerSpec{"fc2", 32, 40}, LayerSpec{"b2", 32, 1},
                      LayerSpec{"ln", 64, 1}, LayerSpec{"fc3", 24, 36},
                      LayerSpec{"b3", 24, 1}, LayerSpec{"head", 30, 20},
                      LayerSpec{"hb", 30, 1}});
}

TEST(SchedPipeline, BucketedMultiWorkerMatchesSizeChunkedLocally) {
  // Local reference backend, every world size 2-8: the bucketed plan and
  // the worker pool are value-transparent.
  const ModelLayout layout = test_layout();
  for (int world = 2; world <= 8; ++world) {
    for (const char* spec : kSchemes) {
      auto reference =
          make_pipeline(std::string(spec) + ":chunk=512", layout, world);
      auto bucketed = make_pipeline(
          std::string(spec) + ":buckets=layer:bucket=4096:workers=2",
          layout, world);
      const auto ref = run_rounds(reference, world);
      const auto got = run_rounds(bucketed, world);
      EXPECT_TRUE(bit_identical(got.outputs, ref.outputs))
          << spec << " world=" << world;
    }
  }
}

/// Bucketed vs size-chunked SPMD ranks on one substrate: every rank's
/// outputs bit-identical to the local size-chunked oracle, and per-rank
/// wire bytes identical between the two chunk plans, round by round.
void expect_bucketed_matches_size_chunked(test::Substrate substrate,
                                          std::initializer_list<int> worlds,
                                          std::size_t bucket_bytes) {
  const ModelLayout layout = test_layout();
  for (int world : worlds) {
    for (const char* spec : kSchemes) {
      SCOPED_TRACE(std::string(spec) + " world=" + std::to_string(world));
      auto oracle =
          make_pipeline(std::string(spec) + ":chunk=512", layout, world);
      const auto ref = run_rounds(oracle, world);
      const test::RoundGrads grads =
          round_grads(layout.total_size(), world);

      auto chunked = test::spmd_pipelines(
          spec, layout, world,
          parse_pipeline_config(std::string(spec) + ":chunk=512"));
      const test::SpmdRun chunked_run =
          test::run_spmd(substrate, chunked, grads);
      auto bucketed = test::spmd_pipelines(
          spec, layout, world,
          parse_pipeline_config(std::string(spec) +
                                    ":buckets=layer:bucket=" +
                                    std::to_string(bucket_bytes),
                                layout, world));
      // Guard against a degenerate plan: the bucket cap on this ~16 KB
      // layout must yield genuinely multi-bucket schedules, or the test
      // would silently stop exercising the bucketed collectives.
      ASSERT_NE(bucketed[0].bucket_plan(), nullptr);
      ASSERT_GT(bucketed[0].bucket_plan()->num_buckets(), 2u);
      const test::SpmdRun bucketed_run =
          test::run_spmd(substrate, bucketed, grads);

      for (std::size_t rank = 0; rank < bucketed_run.outputs.size();
           ++rank) {
        std::vector<float> got;
        for (const auto& out : bucketed_run.outputs[rank]) {
          got.insert(got.end(), out.begin(), out.end());
        }
        EXPECT_TRUE(bit_identical(got, ref.outputs)) << "rank " << rank;
      }
      // Chunking is traffic-transparent: every (step, chunk) hop carries
      // an intersection of the same block partition, so per-rank payload
      // bytes match the size-chunked plan exactly.
      EXPECT_EQ(bucketed_run.sent, chunked_run.sent);
      EXPECT_EQ(bucketed_run.received, chunked_run.received);
    }
  }
}

TEST(SchedPipeline, BucketedMatchesSizeChunkedOnFabricRanks) {
  expect_bucketed_matches_size_chunked(test::Substrate::kFabric,
                                       {2, 3, 5, 8}, 4096);
}

TEST(SchedPipeline, BucketedMatchesSizeChunkedOnSocketRanks) {
  // Each (scheme, world) pair is a full Unix-socket mesh: worlds small.
  expect_bucketed_matches_size_chunked(test::Substrate::kSocket, {2, 4},
                                       2048);
}

TEST(SchedPipeline, WorkerPoolAloneIsValueTransparent) {
  // workers>1 without buckets (plain size chunks) must also be
  // bit-identical — the pool is orthogonal to the plan.
  const ModelLayout layout = test_layout();
  for (const char* spec : kSchemes) {
    auto reference =
        make_pipeline(std::string(spec) + ":chunk=256", layout, 4);
    auto pooled = make_pipeline(
        std::string(spec) + ":chunk=256:workers=4", layout, 4);
    const auto ref = run_rounds(reference, 4);
    const auto got = run_rounds(pooled, 4);
    EXPECT_TRUE(bit_identical(got.outputs, ref.outputs)) << spec;
  }
}

TEST(SchedPipeline, AutotunedSpecRunsAndMatches) {
  // autotune resolves to concrete sizes inside the factory; values stay
  // bit-identical to the monolithic run.
  const ModelLayout layout = test_layout();
  auto mono = make_pipeline("topkc:b=8", layout, 4);
  auto tuned =
      make_pipeline("topkc:b=8:buckets=layer:workers=2:autotune", layout, 4);
  const auto ref = run_rounds(mono, 4);
  const auto got = run_rounds(tuned, 4);
  EXPECT_TRUE(bit_identical(got.outputs, ref.outputs));
}

// A codec whose encode fails for one worker: SPMD ranks over comm::Fabric
// must fail the round loudly (run_workers aborts the fabric, unblocking
// peers already inside the collective) instead of deadlocking.
class FailingEncodeCodec final : public SchemeCodec {
 public:
  FailingEncodeCodec(std::size_t d, int n, int failing_worker)
      : d_(d), n_(n), failing_worker_(failing_worker),
        op_(comm::make_fp32_sum()) {}

  std::string name() const override { return "FailingEncode"; }
  AggregationPath path() const override {
    return AggregationPath::kAllReduce;
  }
  int world_size() const override { return n_; }
  std::size_t dimension() const override { return d_; }

  class Round final : public CodecRound {
   public:
    Round(const FailingEncodeCodec& codec,
          std::span<const std::span<const float>> grads)
        : codec_(codec), grads_(grads) {}

    bool next_stage(WireStage& stage) override {
      if (done_) return false;
      done_ = true;
      stage = WireStage{};
      stage.name = "failing-values";
      stage.op = codec_.op_.get();
      return true;
    }
    ByteBuffer encode(int worker) override {
      if (worker == codec_.failing_worker_) {
        throw Error("synthetic encode failure");
      }
      ByteBuffer buf;
      ByteWriter w(buf);
      w.put_span<float>(grads_[static_cast<std::size_t>(worker)]);
      return buf;
    }
    void absorb_reduced(const ByteBuffer& reduced) override {
      reduced_ = reduced;
    }
    void finish(std::span<float> out, RoundStats& /*stats*/) override {
      std::memcpy(out.data(), reduced_.data(), out.size() * sizeof(float));
    }

   private:
    const FailingEncodeCodec& codec_;
    std::span<const std::span<const float>> grads_;
    bool done_ = false;
    ByteBuffer reduced_;
  };

  std::unique_ptr<CodecRound> begin_round(
      std::span<const std::span<const float>> grads,
      std::uint64_t /*round*/) override {
    return std::make_unique<Round>(*this, grads);
  }
  void reset() override {}

 private:
  friend class Round;
  std::size_t d_;
  int n_;
  int failing_worker_;
  std::unique_ptr<comm::ReduceOp> op_;
};

TEST(SchedPipeline, EncodeFailureFailsLoudlyOnFabricRanks) {
  // Rank 3's encode throws while ranks 0-2 are already blocked in the
  // ring's first recv; the fabric abort must surface an exception (any
  // rank's) rather than deadlock, and promptly.
  const std::size_t d = 256;
  const int world = 4;
  PipelineConfig config;
  config.chunk_bytes = 64;
  std::vector<AggregationPipeline> ranks;
  for (int r = 0; r < world; ++r) {
    ranks.emplace_back(std::make_unique<FailingEncodeCodec>(d, world, 3),
                       config);
  }
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(test::run_spmd(test::Substrate::kFabric, ranks,
                              {random_grads(d, world, 77)}),
               std::exception);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
}

TEST(SchedPipeline, LayerBucketsRequireACoveringLayout) {
  // parse_pipeline_config without a layout leaves the config layout
  // empty; constructing a pipeline from it must fail loudly rather than
  // plan buckets over nothing.
  const ModelLayout layout = test_layout();
  PipelineConfig config = parse_pipeline_config("fp16:buckets=layer");
  EXPECT_THROW(AggregationPipeline(make_scheme_codec("fp16", layout, 2),
                                   config),
               Error);
}

}  // namespace
}  // namespace gcs::core
