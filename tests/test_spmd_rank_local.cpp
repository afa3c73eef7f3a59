// Rank-local SPMD rounds: AggregationPipeline::aggregate_over hands the
// codec only the calling rank's gradient, and the codec does per-worker
// work for that worker alone.
//
// A counting SchemeCodec/CodecRound decorator wraps every rank's codec
// and records what the pipeline asked of it: begin_round must see exactly
// one non-empty gradient (the rank's own), encode/encode_range must only
// ever name the rank's own worker, and encode on a peer must throw a
// typed gcs::Error. Values must still be bit-identical to the all-worker
// oracle, kLocalReference: every rank's outputs, and each rank's own EF
// residual against the oracle's row for that worker after four rounds of
// carried state. Wire bytes must hit a golden table recorded from the
// all-worker threaded-fabric backend this suite used to compare against,
// and per-rank sent and received bytes must agree between the two
// substrates rank by rank and round by round. Run over comm::Fabric ranks
// (callers passing every gradient) and SocketFabric ranks (callers
// passing only their own), worlds 2-5 (tests/spmd_ranks.h).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "core/synthetic_grad.h"
#include "spmd_ranks.h"
#include "tensor/layout.h"

namespace gcs::core {
namespace {

using test::RoundGrads;
using test::run_spmd;
using test::SpmdRun;
using test::Substrate;

constexpr int kRounds = 4;
constexpr std::size_t kChunkBytes = 512;
constexpr std::uint64_t kSeed = 4242;

/// Each spec with its golden wire bytes: the bytes sent, summed over every
/// rank and all kRounds rounds, for worlds 2-5. Recorded from the
/// all-worker threaded-fabric backend (one comm::Fabric per stage, every
/// worker encoded in one process) before that backend was deleted; the
/// received totals are equal.
struct GoldenSpec {
  const char* spec;
  std::uint64_t sent[4];  ///< worlds 2, 3, 4, 5
};

const GoldenSpec kSpecs[] = {
    {"fp16", {45824, 91648, 137472, 183296}},
    {"fp32", {91648, 183296, 274944, 366592}},
    {"topk:b=8", {22928, 68784, 137568, 229280}},
    {"topk:b=8:delta", {22944, 68832, 137664, 229440}},
    {"topkc:b=8", {22160, 44320, 66480, 88640}},
    {"thc:q=4:b=4:sat:partial", {16448, 32896, 49344, 65792}},
    {"thc:q=4:b=8:full", {32832, 65664, 98496, 131328}},
    {"powersgd:r=2", {5632, 11264, 16896, 22528}},
};

/// What one rank's pipeline asked of its codec.
struct Calls {
  int begins = 0;
  int begins_not_own = 0;  ///< begin_round views other than {own} held
  int encodes = 0;  ///< encode, encode_into and encode_range calls
  int encodes_not_own = 0;
  int peer_probes = 0;
  int peer_probes_threw = 0;  ///< peer encodes that threw gcs::Error
};

/// Decorates a session: counts encodes and, at every stage, probes that
/// encoding each peer throws gcs::Error (the probe runs before the
/// pipeline's own encode, so a probe that wrongly succeeded would also
/// show up as a value mismatch).
class CountingRound final : public CodecRound {
 public:
  CountingRound(std::unique_ptr<CodecRound> inner, Calls& calls, int rank,
                int world)
      : inner_(std::move(inner)), calls_(calls), rank_(rank), world_(world) {}

  bool next_stage(WireStage& stage) override {
    if (!inner_->next_stage(stage)) return false;
    for (int peer = 0; peer < world_; ++peer) {
      if (peer == rank_) continue;
      ++calls_.peer_probes;
      try {
        (void)inner_->encode(peer);
      } catch (const Error&) {
        ++calls_.peer_probes_threw;
      }
    }
    return true;
  }

  ByteBuffer encode(int worker) override {
    count(worker);
    return inner_->encode(worker);
  }

  void encode_into(int worker, ByteBuffer& out) override {
    count(worker);
    inner_->encode_into(worker, out);
  }

  bool supports_encode_range() const override {
    return inner_->supports_encode_range();
  }

  void encode_range(int worker, std::size_t offset,
                    std::span<std::byte> out) override {
    count(worker);
    inner_->encode_range(worker, offset, out);
  }

  void absorb_reduced(const ByteBuffer& reduced) override {
    inner_->absorb_reduced(reduced);
  }

  void absorb_gathered(std::span<const ByteBuffer> payloads) override {
    inner_->absorb_gathered(payloads);
  }

  void finish(std::span<float> out, RoundStats& stats) override {
    inner_->finish(out, stats);
  }

 private:
  void count(int worker) {
    ++calls_.encodes;
    if (worker != rank_) ++calls_.encodes_not_own;
  }

  std::unique_ptr<CodecRound> inner_;
  Calls& calls_;
  const int rank_;
  const int world_;
};

/// Decorates a codec the way bench_e2e's TimedCodec does: forwards
/// begin_round(grads, round) and wraps the session.
class CountingCodec final : public SchemeCodec {
 public:
  CountingCodec(SchemeCodecPtr inner, Calls& calls, int rank)
      : inner_(std::move(inner)), calls_(calls), rank_(rank) {}

  std::string name() const override { return inner_->name(); }
  AggregationPath path() const override { return inner_->path(); }
  int world_size() const override { return inner_->world_size(); }
  std::size_t dimension() const override { return inner_->dimension(); }
  void reset() override { inner_->reset(); }
  std::span<const float> ef_memory(int worker) const override {
    return inner_->ef_memory(worker);
  }

  std::unique_ptr<CodecRound> begin_round(
      std::span<const std::span<const float>> grads,
      std::uint64_t round) override {
    ++calls_.begins;
    int held = 0;
    bool own = false;
    for (std::size_t w = 0; w < grads.size(); ++w) {
      if (grads[w].empty()) continue;
      ++held;
      own |= w == static_cast<std::size_t>(rank_);
    }
    if (held != 1 || !own) ++calls_.begins_not_own;
    return std::make_unique<CountingRound>(inner_->begin_round(grads, round),
                                           calls_, rank_,
                                           inner_->world_size());
  }

 private:
  SchemeCodecPtr inner_;
  Calls& calls_;
  const int rank_;
};

ModelLayout test_layout() {
  // Matrix layers for PowerSGD plus a bias vector; ~3k coordinates.
  return ModelLayout({LayerSpec{"w0", 48, 32}, LayerSpec{"b0", 48, 1},
                      LayerSpec{"w1", 32, 40}});
}

PipelineConfig spmd_config() {
  PipelineConfig config;
  config.chunk_bytes = kChunkBytes;
  return config;
}

RoundGrads round_grads(std::size_t d, int world) {
  RoundGrads grads;
  for (int r = 0; r < kRounds; ++r) {
    grads.push_back(
        seeded_worker_grads(d, world, kSeed, static_cast<std::uint64_t>(r)));
  }
  return grads;
}

/// The all-worker oracle for one (spec, world): kLocalReference's outputs
/// and the local reference codec's EF rows after the last round.
struct Oracle {
  std::vector<std::vector<float>> outputs;  ///< [round]
  std::vector<std::vector<float>> ef;       ///< [worker]
};

Oracle run_oracle(const std::string& spec, const ModelLayout& layout,
                  const RoundGrads& grads, int world) {
  AggregationPipeline local(make_scheme_codec(spec, layout, world),
                            spmd_config());
  Oracle oracle;
  std::vector<float> out(layout.total_size());
  for (int r = 0; r < kRounds; ++r) {
    const auto& round = grads[static_cast<std::size_t>(r)];
    const std::vector<std::span<const float>> views(round.begin(),
                                                    round.end());
    local.aggregate(views, out, static_cast<std::uint64_t>(r));
    oracle.outputs.push_back(out);
  }
  for (int w = 0; w < world; ++w) {
    const auto m = local.codec().ef_memory(w);
    oracle.ef.emplace_back(m.begin(), m.end());
  }
  return oracle;
}

/// Each rank's pipeline over a CountingCodec; `calls` must outlive them.
std::vector<AggregationPipeline> counting_pipelines(
    const std::string& spec, const ModelLayout& layout, int world,
    std::vector<Calls>& calls) {
  calls.assign(static_cast<std::size_t>(world), Calls{});
  std::vector<AggregationPipeline> pipelines;
  for (int r = 0; r < world; ++r) {
    pipelines.emplace_back(
        std::make_unique<CountingCodec>(
            make_scheme_codec(spec, layout, world),
            calls[static_cast<std::size_t>(r)], r),
        spmd_config());
  }
  return pipelines;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void expect_matches_oracle(const std::vector<Calls>& calls,
                           std::vector<AggregationPipeline>& pipelines,
                           const SpmdRun& run, const Oracle& oracle,
                           std::uint64_t golden_sent, int world) {
  std::uint64_t sent = 0, received = 0;
  for (int r = 0; r < world; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const auto ri = static_cast<std::size_t>(r);
    const Calls& c = calls[ri];
    EXPECT_EQ(c.begins, kRounds);
    EXPECT_EQ(c.begins_not_own, 0)
        << "begin_round saw a view other than the rank's own gradient";
    EXPECT_GT(c.encodes, 0);
    EXPECT_EQ(c.encodes_not_own, 0)
        << "the pipeline encoded a peer's payload";
    EXPECT_GT(c.peer_probes, 0);
    EXPECT_EQ(c.peer_probes_threw, c.peer_probes)
        << "encode(peer) did not throw gcs::Error";
    ASSERT_EQ(run.outputs[ri].size(), static_cast<std::size_t>(kRounds));
    for (int round = 0; round < kRounds; ++round) {
      const auto i = static_cast<std::size_t>(round);
      EXPECT_TRUE(same_bits(run.outputs[ri][i], oracle.outputs[i]))
          << "round " << round << ": output differs from kLocalReference";
      sent += run.sent[i][ri];
      received += run.received[i][ri];
    }
    EXPECT_TRUE(same_bits(pipelines[ri].codec().ef_memory(r),
                          oracle.ef[ri]))
        << "the rank's own EF residual diverged from the oracle's";
  }
  EXPECT_EQ(sent, golden_sent) << "wire bytes differ from the golden table";
  EXPECT_EQ(received, golden_sent);
}

/// Runs every (spec, world) over `substrate` with counting codecs and
/// checks it against the oracle and the golden table; returns the
/// per-rank meters by (spec, world) for cross-substrate comparison.
std::vector<SpmdRun> run_matrix(Substrate substrate) {
  const ModelLayout layout = test_layout();
  std::vector<SpmdRun> runs;
  for (const GoldenSpec& golden : kSpecs) {
    for (int world = 2; world <= 5; ++world) {
      SCOPED_TRACE(std::string(golden.spec) + " world " +
                   std::to_string(world));
      const RoundGrads grads = round_grads(layout.total_size(), world);
      const Oracle oracle = run_oracle(golden.spec, layout, grads, world);
      std::vector<Calls> calls;
      auto pipelines = counting_pipelines(golden.spec, layout, world, calls);
      runs.push_back(run_spmd(substrate, pipelines, grads));
      expect_matches_oracle(calls, pipelines, runs.back(), oracle,
                            golden.sent[world - 2], world);
    }
  }
  return runs;
}

TEST(SpmdRankLocal, ThreadedFabricRanksEncodeOnlyTheirOwnWorker) {
  (void)run_matrix(Substrate::kFabric);
}

TEST(SpmdRankLocal, SocketFabricRanksEncodeOnlyTheirOwnWorker) {
  const std::vector<SpmdRun> socket = run_matrix(Substrate::kSocket);
  const std::vector<SpmdRun> fabric = run_matrix(Substrate::kFabric);
  ASSERT_EQ(socket.size(), fabric.size());
  for (std::size_t i = 0; i < socket.size(); ++i) {
    SCOPED_TRACE(std::string(kSpecs[i / 4].spec) + " world " +
                 std::to_string(i % 4 + 2));
    // [round][rank]: the same bytes on either substrate, rank by rank and
    // round by round.
    EXPECT_EQ(socket[i].sent, fabric[i].sent);
    EXPECT_EQ(socket[i].received, fabric[i].received);
  }
}

TEST(SpmdRankLocal, BeginRoundRejectsMalformedViews) {
  const ModelLayout layout = test_layout();
  const std::size_t d = layout.total_size();
  const std::vector<float> grad(d, 1.0f), short_grad(d - 1, 1.0f);
  for (const GoldenSpec& golden : kSpecs) {
    SCOPED_TRACE(golden.spec);
    auto codec = make_scheme_codec(golden.spec, layout, 3);
    // No worker held.
    const std::vector<std::span<const float>> none(3);
    EXPECT_THROW((void)codec->begin_round(none, 0), Error);
    // A held gradient of the wrong size.
    std::vector<std::span<const float>> bad(3);
    bad[1] = short_grad;
    EXPECT_THROW((void)codec->begin_round(bad, 0), Error);
    // One span too few for the world.
    const std::vector<std::span<const float>> short_view(2, grad);
    EXPECT_THROW((void)codec->begin_round(short_view, 0), Error);
  }
}

}  // namespace
}  // namespace gcs::core
