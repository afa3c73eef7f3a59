// Rank-local SPMD rounds: AggregationPipeline::aggregate_over hands the
// codec only the calling rank's gradient, and the codec does per-worker
// work for that worker alone.
//
// A counting SchemeCodec/CodecRound decorator wraps every rank's codec
// and records what the pipeline asked of it: begin_round must see exactly
// one non-empty gradient (the rank's own), encode/encode_range must only
// ever name the rank's own worker, and encode on a peer must throw a
// typed gcs::Error. Values and wire bytes must still be bit-identical to
// the all-worker oracles: outputs to kLocalReference, per-rank sent and
// received bytes to the threaded fabric's aggregate(), and each rank's
// own EF residual to the oracle's row for that worker after four rounds
// of carried state. Run over threaded comm::Fabric ranks (callers passing
// every gradient) and SocketFabric ranks (callers passing only their
// own), worlds 2-5.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/fabric.h"
#include "comm/group.h"
#include "common/check.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "core/synthetic_grad.h"
#include "net/launcher.h"
#include "net/socket_fabric.h"
#include "tensor/layout.h"

namespace gcs::core {
namespace {

constexpr int kRounds = 4;
constexpr std::size_t kChunkBytes = 512;
constexpr std::uint64_t kSeed = 4242;

const char* kSpecs[] = {
    "fp16",
    "fp32",
    "topk:b=8",
    "topk:b=8:delta",
    "topkc:b=8",
    "thc:q=4:b=4:sat:partial",
    "thc:q=4:b=8:full",
    "powersgd:r=2",
};

/// What one rank's pipeline asked of its codec.
struct Calls {
  int begins = 0;
  int begins_not_own = 0;  ///< begin_round views other than {own} held
  int encodes = 0;         ///< encode + encode_range calls
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

std::vector<std::vector<float>> round_grads(std::size_t d, int world,
                                            int round) {
  return seeded_worker_grads(d, world, kSeed,
                             static_cast<std::uint64_t>(round));
}

/// The all-worker oracles for one (spec, world): outputs from
/// kLocalReference, per-rank wire bytes from the threaded fabric, and
/// the local reference codec's EF rows after the last round.
struct Oracle {
  std::vector<std::vector<float>> outputs;  ///< [round]
  std::vector<WireTraffic> wire;            ///< [round]
  std::vector<std::vector<float>> ef;       ///< [worker]
};

Oracle run_oracle(const std::string& spec, const ModelLayout& layout,
                  int world) {
  const std::size_t d = layout.total_size();
  AggregationPipeline local(make_scheme_codec(spec, layout, world),
                            spmd_config());
  PipelineConfig threaded_config = spmd_config();
  threaded_config.backend = PipelineBackend::kThreadedFabric;
  AggregationPipeline threaded(make_scheme_codec(spec, layout, world),
                               threaded_config);
  Oracle oracle;
  std::vector<float> out(d), unused(d);
  for (int r = 0; r < kRounds; ++r) {
    const auto grads = round_grads(d, world, r);
    const std::vector<std::span<const float>> views(grads.begin(),
                                                    grads.end());
    local.aggregate(views, out, static_cast<std::uint64_t>(r));
    threaded.aggregate(views, unused, static_cast<std::uint64_t>(r));
    oracle.outputs.push_back(out);
    oracle.wire.push_back(threaded.last_wire());
  }
  for (int w = 0; w < world; ++w) {
    const auto m = local.codec().ef_memory(w);
    oracle.ef.emplace_back(m.begin(), m.end());
  }
  return oracle;
}

/// One rank's SPMD state across the rounds of a world.
struct Rank {
  Calls calls;
  std::unique_ptr<AggregationPipeline> pipeline;
  std::vector<std::vector<float>> outputs;  ///< [round]
  std::vector<std::uint64_t> sent, received;  ///< [round]
};

std::vector<Rank> make_ranks(const std::string& spec,
                             const ModelLayout& layout, int world) {
  std::vector<Rank> ranks(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    auto& rank = ranks[static_cast<std::size_t>(r)];
    rank.pipeline = std::make_unique<AggregationPipeline>(
        std::make_unique<CountingCodec>(
            make_scheme_codec(spec, layout, world), rank.calls, r),
        spmd_config());
  }
  return ranks;
}

/// Runs one rank's round over `comm` and records its output and meters.
void rank_round(Rank& rank, comm::Communicator& comm,
                std::span<const std::span<const float>> views, int round) {
  const int r = comm.rank();
  comm::Transport& transport = comm.transport();
  const std::uint64_t sent0 = transport.bytes_sent(r);
  const std::uint64_t received0 = transport.bytes_received(r);
  std::vector<float> out(rank.pipeline->codec().dimension());
  rank.pipeline->aggregate_over(comm, views, out,
                                static_cast<std::uint64_t>(round));
  rank.outputs.push_back(std::move(out));
  rank.sent.push_back(transport.bytes_sent(r) - sent0);
  rank.received.push_back(transport.bytes_received(r) - received0);
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void expect_matches_oracle(const std::vector<Rank>& ranks,
                           const Oracle& oracle, int world) {
  for (int r = 0; r < world; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const Rank& rank = ranks[static_cast<std::size_t>(r)];
    const auto ri = static_cast<std::size_t>(r);
    EXPECT_EQ(rank.calls.begins, kRounds);
    EXPECT_EQ(rank.calls.begins_not_own, 0)
        << "begin_round saw a view other than the rank's own gradient";
    EXPECT_GT(rank.calls.encodes, 0);
    EXPECT_EQ(rank.calls.encodes_not_own, 0)
        << "the pipeline encoded a peer's payload";
    EXPECT_GT(rank.calls.peer_probes, 0);
    EXPECT_EQ(rank.calls.peer_probes_threw, rank.calls.peer_probes)
        << "encode(peer) did not throw gcs::Error";
    ASSERT_EQ(rank.outputs.size(), static_cast<std::size_t>(kRounds));
    for (int round = 0; round < kRounds; ++round) {
      const auto i = static_cast<std::size_t>(round);
      EXPECT_TRUE(same_bits(rank.outputs[i], oracle.outputs[i]))
          << "round " << round << ": output differs from kLocalReference";
      EXPECT_EQ(rank.sent[i], oracle.wire[i].sent[ri]) << "round " << round;
      EXPECT_EQ(rank.received[i], oracle.wire[i].received[ri])
          << "round " << round;
    }
    EXPECT_TRUE(same_bits(rank.pipeline->codec().ef_memory(r),
                          oracle.ef[ri]))
        << "the rank's own EF residual diverged from the oracle's";
  }
}

TEST(SpmdRankLocal, ThreadedFabricRanksEncodeOnlyTheirOwnWorker) {
  const ModelLayout layout = test_layout();
  const std::size_t d = layout.total_size();
  for (const char* spec : kSpecs) {
    for (int world = 2; world <= 5; ++world) {
      SCOPED_TRACE(std::string(spec) + " world " + std::to_string(world));
      const Oracle oracle = run_oracle(spec, layout, world);
      auto ranks = make_ranks(spec, layout, world);
      comm::Fabric fabric(world);
      for (int round = 0; round < kRounds; ++round) {
        // Callers that hold every gradient: aggregate_over narrows the
        // codec's view to the rank's own.
        const auto grads = round_grads(d, world, round);
        const std::vector<std::span<const float>> views(grads.begin(),
                                                        grads.end());
        comm::run_workers(fabric, [&](comm::Communicator& comm) {
          rank_round(ranks[static_cast<std::size_t>(comm.rank())], comm,
                     views, round);
        });
      }
      expect_matches_oracle(ranks, oracle, world);
    }
  }
}

TEST(SpmdRankLocal, SocketFabricRanksEncodeOnlyTheirOwnWorker) {
  const ModelLayout layout = test_layout();
  const std::size_t d = layout.total_size();
  for (const char* spec : kSpecs) {
    for (int world = 2; world <= 5; ++world) {
      SCOPED_TRACE(std::string(spec) + " world " + std::to_string(world));
      const Oracle oracle = run_oracle(spec, layout, world);
      auto ranks = make_ranks(spec, layout, world);
      const std::string rendezvous = net::unique_unix_rendezvous();
      std::vector<std::string> errors(static_cast<std::size_t>(world));
      std::vector<std::thread> threads;
      for (int r = 0; r < world; ++r) {
        threads.emplace_back([&, r] {
          try {
            net::SocketFabricConfig config;
            config.rendezvous = rendezvous;
            config.world_size = world;
            config.rank = r;
            config.recv_timeout_ms = 20000;
            net::SocketFabric fabric(config);
            comm::Communicator comm(fabric, r);
            for (int round = 0; round < kRounds; ++round) {
              // A real rank's caller: only its own gradient exists.
              const auto mine = seeded_worker_grad(
                  d, kSeed, static_cast<std::uint64_t>(round), r);
              std::vector<std::span<const float>> views(
                  static_cast<std::size_t>(world));
              views[static_cast<std::size_t>(r)] = mine;
              rank_round(ranks[static_cast<std::size_t>(r)], comm, views,
                         round);
            }
          } catch (const std::exception& e) {
            errors[static_cast<std::size_t>(r)] = e.what();
          }
        });
      }
      for (auto& t : threads) t.join();
      for (int r = 0; r < world; ++r) {
        ASSERT_EQ(errors[static_cast<std::size_t>(r)], "")
            << "rank " << r << " failed";
      }
      expect_matches_oracle(ranks, oracle, world);
    }
  }
}

TEST(SpmdRankLocal, BeginRoundRejectsMalformedViews) {
  const ModelLayout layout = test_layout();
  const std::size_t d = layout.total_size();
  const std::vector<float> grad(d, 1.0f), short_grad(d - 1, 1.0f);
  for (const char* spec : kSpecs) {
    SCOPED_TRACE(spec);
    auto codec = make_scheme_codec(spec, layout, 3);
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
