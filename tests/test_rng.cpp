// Tests for common/rng: determinism, distribution sanity, bounded draws.
#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace gcs {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(r.next_u64());
  EXPECT_GT(seen.size(), 95u);  // not stuck
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, FloatInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const float x = r.next_float();
    EXPECT_GE(x, 0.0f);
    EXPECT_LT(x, 1.0f);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng r(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(13);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(r.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng r(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, GaussianMoments) {
  Rng r(19);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = r.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, SignIsBalanced) {
  Rng r(23);
  int pos = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const float s = r.next_sign();
    ASSERT_TRUE(s == 1.0f || s == -1.0f);
    if (s > 0) ++pos;
  }
  EXPECT_NEAR(static_cast<double>(pos) / n, 0.5, 0.01);
}

TEST(Rng, PermutationIsValid) {
  Rng r(29);
  const auto p = r.permutation(257);
  ASSERT_EQ(p.size(), 257u);
  std::set<std::uint32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, PermutationIsNotIdentity) {
  Rng r(31);
  const auto p = r.permutation(1000);
  int fixed = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] == i) ++fixed;
  }
  EXPECT_LT(fixed, 20);  // E[fixed points] = 1
}

/// The state after `steps` next_u64 calls.
std::array<std::uint64_t, 4> stepped(std::uint64_t seed, std::uint64_t steps) {
  Rng r(seed);
  for (std::uint64_t i = 0; i < steps; ++i) r.next_u64();
  return r.state();
}

TEST(RngJump, EqualsSteppingAtEdgeLengths) {
  for (const std::uint64_t n :
       {0ull, 1ull, 63ull, 64ull, 65ull, (1ull << 20) + 3}) {
    Rng r(99);
    r.jump(Rng::jump_polynomial(n));
    EXPECT_EQ(r.state(), stepped(99, n)) << "n=" << n;
  }
}

TEST(RngJump, EqualsSteppingAcrossSeeds) {
  Rng seeds(2024);
  for (int t = 0; t < 20; ++t) {
    const std::uint64_t seed = seeds.next_u64();
    const std::uint64_t n = seeds.next_below(5000);
    Rng r(seed);
    r.jump(Rng::jump_polynomial(n));
    EXPECT_EQ(r.state(), stepped(seed, n)) << "seed=" << seed << " n=" << n;
    // The jumped stream continues the stepped one draw for draw.
    Rng s(seed);
    for (std::uint64_t i = 0; i < n; ++i) s.next_u64();
    for (int i = 0; i < 8; ++i) ASSERT_EQ(r.next_u64(), s.next_u64());
  }
}

TEST(RngJump, JumpsCompose) {
  // x^a * x^b = x^(a+b): two jumps land where one long one does.
  Rng a(5), b(5);
  a.jump(Rng::jump_polynomial(1000));
  a.jump(Rng::jump_polynomial(2345));
  b.jump(Rng::jump_polynomial(3345));
  EXPECT_EQ(a.state(), b.state());
}

TEST(StreamSplit, LaneStatesAreSegmentStarts) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{1003}, std::size_t{70001}}) {
    const StreamSplit split(n);
    const StreamLanes lanes = split.lanes(17);
    EXPECT_EQ(lanes.seg % 64, 0u);
    EXPECT_GE(lanes.seg * kStreamLanes, n);
    for (std::size_t j = 0; j < kStreamLanes; ++j) {
      EXPECT_EQ(lanes.state[j], stepped(17, j * lanes.seg)) << n << " " << j;
    }
  }
}

TEST(DeriveSeed, StreamsDecorrelate) {
  const auto a = derive_seed(42, 0);
  const auto b = derive_seed(42, 1);
  EXPECT_NE(a, b);
  Rng ra(a), rb(b);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (ra.next_u64() == rb.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(DeriveSeed, Deterministic) {
  EXPECT_EQ(derive_seed(7, 9), derive_seed(7, 9));
}

TEST(Splitmix, AdvancesState) {
  std::uint64_t s = 5;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace gcs
