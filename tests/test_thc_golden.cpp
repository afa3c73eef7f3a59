// THC golden wire test: pins hashes of the levels payloads, the reduced
// levels and the decoded output for partial (bert-sized 8192-float
// blocks), full and no rotation. The hashes were recorded before the
// round moved onto the lane-parallel xoshiro fills, the sign bit vector
// and the block-fused (un)rotation, so they pin the streams and the
// rotation themselves, not only agreement between kernel backends.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/thc_compressor.h"
#include "kernels/kernels.h"

namespace gcs::core {
namespace {

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Golden {
  std::uint64_t levels;   // every worker's levels payload, in worker order
  std::uint64_t reduced;  // the reduced levels payload
  std::uint64_t output;   // the decoded sum
};

/// One local round of `config` over seeded gaussian gradients: every
/// worker held, each stage reduced in worker order.
Golden run_round(const ThcConfig& config, std::uint64_t round) {
  const auto n = static_cast<std::size_t>(config.world_size);
  const std::size_t d = config.dimension;
  std::vector<std::vector<float>> grads(n, std::vector<float>(d));
  for (std::size_t w = 0; w < n; ++w) {
    Rng rng(derive_seed(0x601DE2, w));
    for (auto& v : grads[w]) v = static_cast<float>(rng.next_gaussian());
  }
  std::vector<std::span<const float>> views(grads.begin(), grads.end());
  auto codec = make_thc_codec(config);
  auto session = codec->begin_round(views, round);
  Golden g{};
  WireStage stage;
  // A session may keep views of reduced payloads until finish().
  std::vector<ByteBuffer> reduced;
  while (session->next_stage(stage)) {
    std::vector<ByteBuffer> payloads(n);
    for (std::size_t w = 0; w < n; ++w) {
      payloads[w] = session->encode(static_cast<int>(w));
    }
    ByteBuffer acc = payloads[0];
    for (std::size_t w = 1; w < n; ++w) stage.op->accumulate(acc, payloads[w]);
    if (std::string_view(stage.name) == "levels") {
      g.levels = 0xcbf29ce484222325ull;
      for (const auto& p : payloads) g.levels = fnv1a(p.data(), p.size(), g.levels);
      g.reduced = fnv1a(acc.data(), acc.size());
    }
    reduced.push_back(std::move(acc));
    session->absorb_reduced(reduced.back());
  }
  std::vector<float> out(d);
  RoundStats stats;
  session->finish(out, stats);
  g.output = fnv1a(out.data(), out.size() * sizeof(float));
  return g;
}

ThcConfig config_for(RotationMode rotation, std::size_t d, unsigned b) {
  ThcConfig c;
  c.dimension = d;
  c.world_size = 4;
  c.q = b;
  c.b = b;
  c.rotation = rotation;
  return c;  // default 32 KiB shared memory: 8192-float partial blocks
}

void expect_golden(const ThcConfig& config, const Golden& want) {
  for (const char* backend : {"scalar", "avx2"}) {
    if (std::strcmp(backend, "avx2") == 0 && !kernels::avx2_supported()) {
      continue;
    }
    kernels::force_backend_for_testing(backend);
    const Golden got = run_round(config, 7);
    kernels::force_backend_for_testing(nullptr);
    EXPECT_EQ(got.levels, want.levels) << backend;
    EXPECT_EQ(got.reduced, want.reduced) << backend;
    EXPECT_EQ(got.output, want.output) << backend;
  }
}

TEST(ThcGolden, PartialRotationBertBlocks) {
  // 9 blocks of 8192 with a runt: padding, sign bits past d, the last
  // lane segment of the fills shorter than the others.
  expect_golden(config_for(RotationMode::kPartial, 70001, 4),
                {0x22b8ed9ea670ad47ull, 0x3f14ba16467eade7ull,
                 0xf980b6a47d087eecull});
}

TEST(ThcGolden, PartialRotationTwoBitLanes) {
  expect_golden(config_for(RotationMode::kPartial, 40000, 2),
                {0x92d7576f8f950bc8ull, 0x019bd9a22668001aull,
                 0xf3641531503b5c20ull});
}

TEST(ThcGolden, FullRotation) {
  expect_golden(config_for(RotationMode::kFull, 5000, 4),
                {0x78f372997ffea956ull, 0x51f8af88de405eddull,
                 0x324f90e0b9de57b2ull});
}

TEST(ThcGolden, NoRotation) {
  expect_golden(config_for(RotationMode::kNone, 1003, 8),
                {0x430a23f73dfc3f81ull, 0x3c1aed868088a503ull,
                 0x713012ba0efa7204ull});
}

}  // namespace
}  // namespace gcs::core
