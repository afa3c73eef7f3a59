// Tests for quant/satint: the Sat(.,.) operator, clipping accounting,
// packed wire reduction, and (non-)associativity characterization.
#include "quant/satint.h"

#include <gtest/gtest.h>

#include "comm/reduce_op.h"
#include "common/rng.h"
#include "oracles.h"

namespace gcs {
namespace {

TEST(SatAdd, ClampsIntoTwosComplementDomain) {
  // b = 4 -> [-8, 7] (two's complement; see satint.h for why the paper's
  // symmetric domain is widened by one at the bottom).
  EXPECT_EQ(sat_add(3, 2, 4), 5);
  EXPECT_EQ(sat_add(6, 6, 4), 7);
  EXPECT_EQ(sat_add(-6, -6, 4), -8);
  EXPECT_EQ(sat_add(7, -7, 4), 0);
}

TEST(SatAdd, Bounds) {
  EXPECT_EQ(sat_max(4), 7);
  EXPECT_EQ(sat_min(4), -8);
  EXPECT_EQ(sat_max(8), 127);
  EXPECT_EQ(sat_min(8), -128);
  EXPECT_EQ(sat_min(2), -2);
  EXPECT_EQ(sat_max(2), 1);
}

TEST(SatAdd, IsCommutative) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto x = static_cast<std::int32_t>(rng.next_below(15)) - 7;
    const auto y = static_cast<std::int32_t>(rng.next_below(15)) - 7;
    EXPECT_EQ(sat_add(x, y, 4), sat_add(y, x, 4));
  }
}

TEST(SatAdd, IsNotAssociativeOnceClipping) {
  // (7 + 7) + (-7) = 7 + (-7) = 0, but 7 + (7 + (-7)) = 7 + 0 = 7.
  EXPECT_EQ(sat_add(sat_add(7, 7, 4), -7, 4), 0);
  EXPECT_EQ(sat_add(7, sat_add(7, -7, 4), 4), 7);
}

TEST(SatAddLanes, CountsClips) {
  std::vector<std::int32_t> acc{6, 0, -6};
  const std::vector<std::int32_t> in{5, 1, -5};
  SatStats stats;
  sat_add_lanes(acc, in, 4, &stats);
  EXPECT_EQ(acc[0], 7);
  EXPECT_EQ(acc[1], 1);
  EXPECT_EQ(acc[2], -8);
  EXPECT_EQ(stats.additions, 3u);
  EXPECT_EQ(stats.clips, 2u);
  EXPECT_NEAR(stats.clip_rate(), 2.0 / 3.0, 1e-12);
}

TEST(SatStats, MergeAccumulates) {
  SatStats a{10, 2}, b{5, 1};
  a.merge(b);
  EXPECT_EQ(a.additions, 15u);
  EXPECT_EQ(a.clips, 3u);
}

TEST(SatClampLanes, ClampsIntoDomain) {
  std::vector<std::int32_t> lanes{-9, 8, 0, 7, -8};
  sat_clamp_lanes(lanes, 4);
  EXPECT_EQ(lanes[0], -8);
  EXPECT_EQ(lanes[1], 7);
  EXPECT_EQ(lanes[2], 0);
  EXPECT_EQ(lanes[3], 7);
  EXPECT_EQ(lanes[4], -8);
}

TEST(SignedPack, RoundTrip) {
  Rng rng(2);
  for (unsigned bits : {2u, 4u, 8u}) {
    std::vector<std::int32_t> lanes(257);
    const auto span = static_cast<std::uint64_t>(2 * sat_max(bits) + 1);
    for (auto& l : lanes) {
      l = static_cast<std::int32_t>(rng.next_below(span)) + sat_min(bits);
    }
    const auto packed = pack_signed_lanes(lanes, bits);
    const auto back = unpack_signed_lanes(packed, lanes.size(), bits);
    EXPECT_EQ(back, lanes) << bits;
  }
}

TEST(SignedPack, OutOfDomainThrows) {
  const std::vector<std::int32_t> lanes{-9};  // b=4 domain is [-8, 7]
  EXPECT_THROW(pack_signed_lanes(lanes, 4), std::logic_error);
  const std::vector<std::int32_t> high{8};
  EXPECT_THROW(pack_signed_lanes(high, 4), std::logic_error);
}

TEST(SatReducePacked, MatchesLaneOperation) {
  const std::vector<std::int32_t> a{3, -7, 6, 0};
  const std::vector<std::int32_t> b{5, -2, -6, 1};
  ByteBuffer acc = pack_signed_lanes(a, 4);
  const ByteBuffer in = pack_signed_lanes(b, 4);
  SatStats stats;
  comm::make_sat_int(4, &stats)->accumulate(acc, in);
  const auto result = unpack_signed_lanes(acc, 4, 4);
  EXPECT_EQ(result[0], 7);  // clipped at the top
  EXPECT_EQ(result[1], -9 < sat_min(4) ? sat_min(4) : -9);  // -8, clipped
  EXPECT_EQ(result[2], 0);
  EXPECT_EQ(result[3], 1);
  EXPECT_EQ(stats.clips, 2u);
  EXPECT_EQ(stats.additions, 4u);
}

TEST(SatReduce, NoClipsForSmallValues) {
  Rng rng(3);
  std::vector<std::int32_t> a(100), b(100);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::int32_t>(rng.next_below(7)) - 3;
    b[i] = static_cast<std::int32_t>(rng.next_below(7)) - 3;
  }
  SatStats stats;
  std::vector<std::int32_t> acc = a;
  sat_add_lanes(acc, b, 8, &stats);
  EXPECT_EQ(stats.clips, 0u);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(acc[i], a[i] + b[i]);
}

}  // namespace
}  // namespace gcs
