// Tests for hadamard: orthonormality, involution, partial == block-wise,
// energy preservation, shared-randomness consistency.
#include "hadamard/hadamard.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tensor/vecops.h"

namespace gcs {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(n);
  for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
  return x;
}

TEST(Fwht, SizeMustBePowerOfTwo) {
  std::vector<float> x(6);
  EXPECT_THROW(fwht(x), std::logic_error);
}

TEST(Fwht, SizeTwoKnownValues) {
  std::vector<float> x{1.0f, 3.0f};
  fwht(x);
  const float s = 1.0f / std::sqrt(2.0f);
  EXPECT_NEAR(x[0], 4.0f * s, 1e-6);
  EXPECT_NEAR(x[1], -2.0f * s, 1e-6);
}

TEST(Fwht, IsInvolution) {
  auto x = random_vec(256, 1);
  const auto orig = x;
  fwht(x);
  fwht(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], orig[i], 1e-4f);
  }
}

TEST(Fwht, PreservesEnergy) {
  auto x = random_vec(1024, 2);
  const double before = squared_norm(x);
  fwht(x);
  EXPECT_NEAR(squared_norm(x), before, before * 1e-5);
}

TEST(Fwht, PartialPreservesEnergy) {
  auto x = random_vec(1024, 3);
  const double before = squared_norm(x);
  fwht(x, 4);
  EXPECT_NEAR(squared_norm(x), before, before * 1e-5);
}

TEST(Fwht, PartialEqualsIndependentBlockRotations) {
  // The paper's claim: stopping after l' iterations == splitting into
  // 2^l'-sized chunks and fully rotating each.
  const std::size_t n = 512;
  const unsigned l_partial = 5;  // blocks of 32
  auto x = random_vec(n, 4);
  auto blockwise = x;

  fwht(std::span<float>(x), l_partial);

  const std::size_t block = std::size_t{1} << l_partial;
  for (std::size_t off = 0; off < n; off += block) {
    fwht(std::span<float>(blockwise).subspan(off, block));
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], blockwise[i], 1e-4f) << i;
  }
}

TEST(Fwht, ZeroIterationsIsIdentity) {
  auto x = random_vec(64, 5);
  const auto orig = x;
  fwht(std::span<float>(x), 0);
  EXPECT_EQ(x, orig);
}

TEST(Fwht, ReducesDynamicRangeOfSpikes) {
  // A single spike spreads across the whole vector: max |x| drops by
  // ~sqrt(n) — the reason THC rotates before quantizing.
  std::vector<float> x(4096, 0.0f);
  x[17] = 64.0f;
  fwht(x);
  float mx = 0.0f;
  for (float v : x) mx = std::max(mx, std::fabs(v));
  EXPECT_NEAR(mx, 1.0f, 1e-4f);  // 64 / sqrt(4096)
}

std::vector<std::uint64_t> sign_bits_of(const RhtTransform& rht,
                                        std::uint64_t round) {
  std::vector<std::uint64_t> bits(rht.sign_words());
  rht.sign_bits(round, bits);
  return bits;
}

TEST(RhtSigns, SharedRandomnessIsConsistent) {
  const RhtTransform rht(128, 0, 42);
  const auto a = sign_bits_of(rht, 7);
  EXPECT_EQ(a, sign_bits_of(rht, 7));
  EXPECT_NE(a, sign_bits_of(rht, 8));
}

TEST(RhtSigns, BitsAreTheSequentialSignStream) {
  // Bit i is 1 exactly where the (seed, round) stream's i-th next_sign()
  // is -1; the bits past the padded size in the last word are 0. 1000
  // coordinates pad to 1024 (full), 70001 to 9 blocks of 8192 (partial):
  // the second spreads the stream over every fill lane.
  for (const auto& [size, iters] :
       {std::pair<std::size_t, unsigned>{1000, 0}, {70001, 13}, {3, 0}}) {
    const RhtTransform rht(size, iters, 1);
    const auto bits = sign_bits_of(rht, 5);
    Rng rng(derive_seed(1, 5));
    for (std::size_t i = 0; i < bits.size() * 64; ++i) {
      const bool bit = ((bits[i / 64] >> (i % 64)) & 1u) != 0;
      const bool want = i < rht.padded_size() && rng.next_sign() < 0.0f;
      ASSERT_EQ(bit, want) << "size " << size << " bit " << i;
    }
  }
}

TEST(Rht, BlockFusedForwardIsTheLevelSweep) {
  // Signing, padding and rotating one block at a time runs the identical
  // butterflies on the identical pairs as the sweep over the whole
  // vector: the same bits, partial and full.
  for (const auto& [size, iters] :
       {std::pair<std::size_t, unsigned>{70001, 13}, {5000, 0}, {300, 5}}) {
    const RhtTransform rht(size, iters, 3);
    const auto x = random_vec(size, 4);
    const auto bits = sign_bits_of(rht, 9);
    std::vector<float> sweep(rht.padded_size(), 0.0f);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const float s = ((bits[i / 64] >> (i % 64)) & 1u) != 0 ? -1.0f : 1.0f;
      sweep[i] = (i < size ? x[i] : 0.0f) * s;
    }
    fwht(sweep, rht.iterations());
    std::vector<float> fused(rht.padded_size());
    std::size_t blocks = 0;
    rht.forward(x, fused, bits, [&](std::size_t blk, std::span<float> b) {
      EXPECT_EQ(blk, blocks++);
      EXPECT_EQ(b.size(), rht.block_size());
    });
    EXPECT_EQ(blocks, rht.padded_size() / rht.block_size());
    ASSERT_EQ(std::memcmp(fused.data(), sweep.data(),
                          sweep.size() * sizeof(float)),
              0)
        << size;
  }
}

TEST(FullIterations, Values) {
  EXPECT_EQ(full_iterations(1), 0u);
  EXPECT_EQ(full_iterations(2), 1u);
  EXPECT_EQ(full_iterations(4096), 12u);
}

TEST(PartialIterations, RespectsSharedMemory) {
  // 32 KB of floats = 8192 floats -> l' = 13.
  EXPECT_EQ(partial_iterations(1 << 20, 32 * 1024), 13u);
  // Budget larger than the vector: full transform.
  EXPECT_EQ(partial_iterations(256, 1 << 20), 8u);
  // Tiny budget still mixes at least one level.
  EXPECT_EQ(partial_iterations(256, 1), 1u);
}

class RhtRoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(RhtRoundTripTest, InverseRecoversInput) {
  const auto [size, iters] = GetParam();
  RhtTransform rht(size, iters, 99);
  auto x = random_vec(size, size + iters);
  std::vector<float> rotated(rht.padded_size());
  std::vector<float> back(size);
  rht.forward(x, rotated, 5);
  rht.inverse(rotated, back, 5);
  for (std::size_t i = 0; i < size; ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-3f) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndIters, RhtRoundTripTest,
    ::testing::Values(std::make_tuple(std::size_t{64}, 0u),
                      std::make_tuple(std::size_t{100}, 0u),  // padded
                      std::make_tuple(std::size_t{1000}, 4u),
                      std::make_tuple(std::size_t{4096}, 6u),
                      std::make_tuple(std::size_t{1}, 0u)));

TEST(Rht, ForwardIsLinearAcrossWorkers) {
  // Sum of rotations == rotation of sum (same round => same signs); this
  // is what makes quantized aggregation decodable after all-reduce.
  const std::size_t n = 300;
  RhtTransform rht(n, 5, 7);
  auto a = random_vec(n, 10);
  auto b = random_vec(n, 11);
  std::vector<float> ra(rht.padded_size()), rb(rht.padded_size()),
      rsum(rht.padded_size());
  rht.forward(a, ra, 3);
  rht.forward(b, rb, 3);
  std::vector<float> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = a[i] + b[i];
  rht.forward(sum, rsum, 3);
  for (std::size_t i = 0; i < rht.padded_size(); ++i) {
    EXPECT_NEAR(rsum[i], ra[i] + rb[i], 1e-3f);
  }
}

TEST(Rht, DifferentRoundsRotateDifferently) {
  const std::size_t n = 128;
  RhtTransform rht(n, 0, 7);
  auto x = random_vec(n, 12);
  std::vector<float> r1(rht.padded_size()), r2(rht.padded_size());
  rht.forward(x, r1, 1);
  rht.forward(x, r2, 2);
  EXPECT_NE(r1, r2);
}

}  // namespace
}  // namespace gcs
