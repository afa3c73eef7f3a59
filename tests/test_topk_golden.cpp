// TopK golden test: pins hashes of the sparse payloads, the aggregated
// output and every worker's EF residual over three local rounds, for the
// plain and the delta-index wire formats, on both kernel backends. The
// hashes were recorded before the select moved onto the key-histogram
// kernels, the EF commit became a storage exchange and the scatter-add
// moved into finish(), so they pin the selection, the wire bytes and the
// residuals themselves, not only agreement between kernel backends.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/topk_compressor.h"
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
  std::uint64_t payloads = 0xcbf29ce484222325ull;  // every round, worker order
  std::uint64_t output = 0xcbf29ce484222325ull;    // every round's sum
  std::uint64_t residual = 0xcbf29ce484222325ull;  // every round, every worker
};

enum class Values {
  kGaussian,
  kCoarse,   ///< snapped to a 1/8 grid: the threshold bucket is all ties
  kSpecial,  ///< gaussian with NaNs, +-Inf, denormals and -0 sprinkled in
};

float special(std::size_t i) {
  switch (i % 5) {
    case 0: return std::bit_cast<float>(0x7FC00123u);  // NaN with payload
    case 1: return -std::numeric_limits<float>::infinity();
    case 2: return std::numeric_limits<float>::denorm_min() * 3.0f;
    case 3: return -0.0f;
    default: return std::bit_cast<float>(0xFF800001u);  // signaling NaN
  }
}

/// Three local rounds of a 4-worker TopK codec over seeded gradients.
Golden run_rounds(std::size_t d, double bits, bool delta, Values values) {
  constexpr int kWorld = 4;
  TopKConfig config;
  config.dimension = d;
  config.world_size = kWorld;
  config.delta_indices = delta;
  config.k = TopKConfig::k_for_bits(d, bits, delta);
  auto codec = make_topk_codec(config);
  Golden g;
  for (std::uint64_t round = 0; round < 3; ++round) {
    std::vector<std::vector<float>> grads(kWorld, std::vector<float>(d));
    for (std::size_t w = 0; w < grads.size(); ++w) {
      Rng rng(derive_seed(0x70BC, w * 16 + round));
      for (std::size_t i = 0; i < d; ++i) {
        float v = static_cast<float>(rng.next_gaussian());
        if (values == Values::kCoarse) v = std::round(v * 8.0f) / 8.0f;
        if (values == Values::kSpecial && i % 997 == w) v = special(i / 997);
        grads[w][i] = v;
      }
    }
    std::vector<std::span<const float>> views(grads.begin(), grads.end());
    auto session = codec->begin_round(views, round);
    WireStage stage;
    std::vector<ByteBuffer> payloads(kWorld);
    while (session->next_stage(stage)) {
      for (int w = 0; w < kWorld; ++w) {
        payloads[static_cast<std::size_t>(w)] = session->encode(w);
        const auto& p = payloads[static_cast<std::size_t>(w)];
        g.payloads = fnv1a(p.data(), p.size(), g.payloads);
      }
      session->absorb_gathered(payloads);
    }
    std::vector<float> out(d);
    RoundStats stats;
    session->finish(out, stats);
    g.output = fnv1a(out.data(), out.size() * sizeof(float), g.output);
    for (int w = 0; w < kWorld; ++w) {
      const auto m = codec->ef_memory(w);
      g.residual = fnv1a(m.data(), m.size() * sizeof(float), g.residual);
    }
  }
  return g;
}

void expect_golden(std::size_t d, double bits, bool delta, Values values,
                   const Golden& want) {
  for (const char* backend : {"scalar", "avx2"}) {
    if (std::strcmp(backend, "avx2") == 0 && !kernels::avx2_supported()) {
      continue;
    }
    kernels::force_backend_for_testing(backend);
    const Golden got = run_rounds(d, bits, delta, values);
    kernels::force_backend_for_testing(nullptr);
    EXPECT_EQ(got.payloads, want.payloads) << backend;
    EXPECT_EQ(got.output, want.output) << backend;
    EXPECT_EQ(got.residual, want.residual) << backend;
  }
}

TEST(TopKGolden, PlainIndices) {
  expect_golden(70001, 8.0, false, Values::kGaussian,
                {0xd2695d16359d4824ull, 0x9fdfca0b52dfeec9ull,
                 0x5c4cbe0812109084ull});
}

TEST(TopKGolden, DeltaIndices) {
  expect_golden(70001, 8.0, true, Values::kGaussian,
                {0x6295cd5c49c63eabull, 0x4fda9118920df353ull,
                 0x47713979a219237full});
}

TEST(TopKGolden, CoarseGridTies) {
  expect_golden(40000, 8.0, false, Values::kCoarse,
                {0xac4b5ab250537482ull, 0xb83d93a044d18442ull,
                 0x2b416a11f4ac3d32ull});
}

TEST(TopKGolden, DeltaWithIndexGapPadding) {
  // d well past 2^16 with few coordinates kept, so gaps exceed the 16-bit
  // delta range and the encoder inserts padding entries.
  expect_golden(std::size_t{1} << 20, 0.0005, true, Values::kGaussian,
                {0x6395c71e6dc94c7aull, 0x166020a8152f0567ull,
                 0xb310cd0858b8663cull});
}

TEST(TopKGolden, SpecialValues) {
  // NaN payloads and infinities land in the top key buckets, so they are
  // selected, sent as fp16 and summed; denormals and -0 sit in bucket 0.
  expect_golden(70001, 8.0, false, Values::kSpecial,
                {0x2902dc37aa5ef4cdull, 0xaeabc738cfd00d10ull,
                 0x1728529b82b16e16ull});
}

}  // namespace
}  // namespace gcs::core
