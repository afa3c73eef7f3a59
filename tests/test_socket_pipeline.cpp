// The acceptance test of the socket transport subsystem: a multi-process
// SocketFabric DDP round (world size >= 4, all five schemes) produces
// bit-identical aggregated gradients and identical per-rank wire-byte
// counts to the in-process fabric. Every socket-backend aggregate() call
// below forks real OS processes (ranks 1..n-1; the test process itself
// participates as rank 0) and meshes them over Unix-domain sockets.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "tensor/layout.h"

namespace gcs::core {
namespace {

constexpr int kWorld = 4;
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
  std::vector<float> outputs;          // concatenated per-round outs
  std::vector<WireTraffic> wire;       // per-round meters
};

RunResult run_rounds(AggregationPipeline& pipeline, int world, int rounds) {
  const std::size_t d = pipeline.codec().dimension();
  RunResult result;
  std::vector<float> out(d);
  for (int r = 0; r < rounds; ++r) {
    const auto grads =
        random_grads(d, world, 7000 + static_cast<std::uint64_t>(r));
    const auto views = views_of(grads);
    pipeline.aggregate(std::span<const std::span<const float>>(views), out,
                       static_cast<std::uint64_t>(r));
    result.outputs.insert(result.outputs.end(), out.begin(), out.end());
    result.wire.push_back(pipeline.last_wire());
  }
  return result;
}

TEST(SocketPipeline, MatchesInProcessFabricForAllFiveSchemes) {
  const ModelLayout layout = make_transformer_like_layout(1 << 12);
  for (const char* spec : kSchemes) {
    PipelineConfig threaded;
    threaded.chunk_bytes = 512;
    threaded.backend = PipelineBackend::kThreadedFabric;
    AggregationPipeline in_process(
        make_scheme_codec(spec, layout, kWorld), threaded);
    const RunResult reference = run_rounds(in_process, kWorld, kRounds);

    PipelineConfig socket;
    socket.chunk_bytes = 512;
    socket.backend = PipelineBackend::kSocketFabric;
    AggregationPipeline over_sockets(
        make_scheme_codec(spec, layout, kWorld), socket);
    const RunResult real = run_rounds(over_sockets, kWorld, kRounds);

    // Bit-identical aggregated gradients, including cross-round state
    // (error feedback, PowerSGD warm starts) evolving identically.
    ASSERT_EQ(real.outputs.size(), reference.outputs.size()) << spec;
    EXPECT_EQ(std::memcmp(real.outputs.data(), reference.outputs.data(),
                          real.outputs.size() * sizeof(float)),
              0)
        << spec;

    // Identical per-rank wire bytes in both directions, every round.
    ASSERT_EQ(real.wire.size(), reference.wire.size()) << spec;
    for (std::size_t r = 0; r < real.wire.size(); ++r) {
      EXPECT_EQ(real.wire[r].sent, reference.wire[r].sent)
          << spec << " round " << r;
      EXPECT_EQ(real.wire[r].received, reference.wire[r].received)
          << spec << " round " << r;
      std::uint64_t total = 0;
      for (const auto b : real.wire[r].sent) total += b;
      EXPECT_GT(total, 0u) << spec << ": socket round moved no bytes?";
    }
  }
}

TEST(SocketPipeline, WorldSizeFivePowerOfTwoBreaker) {
  // World sizes off the power of two also mesh and agree (tree/broadcast
  // topologies degenerate differently at n=5).
  const ModelLayout layout({LayerSpec{"flat", 2048, 1}});
  PipelineConfig threaded;
  threaded.chunk_bytes = 256;
  threaded.backend = PipelineBackend::kThreadedFabric;
  AggregationPipeline in_process(
      make_scheme_codec("topkc:b=8", layout, 5), threaded);
  const RunResult reference = run_rounds(in_process, 5, 1);

  PipelineConfig socket;
  socket.chunk_bytes = 256;
  socket.backend = PipelineBackend::kSocketFabric;
  AggregationPipeline over_sockets(
      make_scheme_codec("topkc:b=8", layout, 5), socket);
  const RunResult real = run_rounds(over_sockets, 5, 1);

  EXPECT_EQ(std::memcmp(real.outputs.data(), reference.outputs.data(),
                        real.outputs.size() * sizeof(float)),
            0);
  EXPECT_EQ(real.wire[0].sent, reference.wire[0].sent);
  EXPECT_EQ(real.wire[0].received, reference.wire[0].received);
}

TEST(SocketPipeline, FactorySpecSelectsSocketBackend) {
  // fabric=socket through the factory spec: same values as the local
  // reference path.
  const ModelLayout layout({LayerSpec{"flat", 1024, 1}});
  auto local = make_pipeline("thc:q=4:b=4:sat:partial", layout, kWorld);
  auto socket = make_pipeline(
      "thc:q=4:b=4:sat:partial:chunk=256:fabric=socket", layout, kWorld);

  const auto grads = random_grads(1024, kWorld, 42);
  const auto views = views_of(grads);
  std::vector<float> out_local(1024), out_socket(1024);
  local.aggregate(std::span<const std::span<const float>>(views), out_local,
                  0);
  socket.aggregate(std::span<const std::span<const float>>(views),
                   out_socket, 0);
  EXPECT_EQ(std::memcmp(out_local.data(), out_socket.data(),
                        out_local.size() * sizeof(float)),
            0);
}

TEST(SocketPipeline, LocalBackendReportsNoWire) {
  const ModelLayout layout({LayerSpec{"flat", 512, 1}});
  AggregationPipeline pipeline(make_scheme_codec("fp16", layout, kWorld),
                               PipelineConfig{});
  const auto grads = random_grads(512, kWorld, 1);
  const auto views = views_of(grads);
  std::vector<float> out(512);
  pipeline.aggregate(std::span<const std::span<const float>>(views), out,
                     0);
  EXPECT_TRUE(pipeline.last_wire().sent.empty());
  EXPECT_TRUE(pipeline.last_wire().received.empty());
}

}  // namespace
}  // namespace gcs::core
