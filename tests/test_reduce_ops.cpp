// Tests for comm/reduce_op: each operator's semantics on byte payloads.
#include "comm/reduce_op.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/check.h"
#include "numeric/half.h"
#include "oracles.h"

namespace gcs::comm {
namespace {

ByteBuffer floats_payload(std::initializer_list<float> xs) {
  ByteBuffer buf(xs.size() * sizeof(float));
  std::memcpy(buf.data(), std::data(xs), buf.size());
  return buf;
}

std::vector<float> floats_of(const ByteBuffer& buf) {
  std::vector<float> out(buf.size() / sizeof(float));
  std::memcpy(out.data(), buf.data(), buf.size());
  return out;
}

ByteBuffer halves_payload(std::initializer_list<float> xs) {
  ByteBuffer buf;
  ByteWriter w(buf);
  for (float x : xs) w.put<std::uint16_t>(float_to_half_bits(x));
  return buf;
}

TEST(Fp32Sum, AddsElementwise) {
  auto acc = floats_payload({1.0f, -2.0f});
  const auto in = floats_payload({0.5f, 3.0f});
  make_fp32_sum()->accumulate(acc, in);
  const auto out = floats_of(acc);
  EXPECT_EQ(out[0], 1.5f);
  EXPECT_EQ(out[1], 1.0f);
}

TEST(Fp32Sum, SizeMismatchThrows) {
  auto acc = floats_payload({1.0f});
  const auto in = floats_payload({1.0f, 2.0f});
  EXPECT_THROW(make_fp32_sum()->accumulate(acc, in), std::logic_error);
}

TEST(Fp16Sum, RoundsPerHop) {
  // 2048 + 1 in fp16: 2049 is not representable -> stays 2048.
  auto acc = halves_payload({2048.0f});
  const auto in = halves_payload({1.0f});
  make_fp16_sum()->accumulate(acc, in);
  const auto* bits = reinterpret_cast<const std::uint16_t*>(acc.data());
  EXPECT_EQ(half_bits_to_float(bits[0]), 2048.0f);
}

TEST(Fp16Sum, ExactForSmallIntegers) {
  auto acc = halves_payload({3.0f, -1.0f});
  const auto in = halves_payload({4.0f, 1.5f});
  make_fp16_sum()->accumulate(acc, in);
  const auto* bits = reinterpret_cast<const std::uint16_t*>(acc.data());
  EXPECT_EQ(half_bits_to_float(bits[0]), 7.0f);
  EXPECT_EQ(half_bits_to_float(bits[1]), 0.5f);
}

TEST(Fp16Sum, HostileSizesThrow) {
  const auto op = make_fp16_sum();
  auto acc = halves_payload({1.0f, 2.0f});
  const auto longer = halves_payload({1.0f, 2.0f, 3.0f});
  EXPECT_THROW(op->accumulate(acc, longer), std::logic_error);
  // Equal but odd byte counts: a half cannot be split.
  ByteBuffer odd_acc(3), odd_in(3);
  EXPECT_THROW(op->accumulate(odd_acc, odd_in), std::logic_error);
}

TEST(MinMax, Elementwise) {
  auto acc = floats_payload({1.0f, 5.0f});
  const auto in = floats_payload({3.0f, 2.0f});
  auto acc2 = acc;
  make_fp32_min()->accumulate(acc, in);
  EXPECT_EQ(floats_of(acc), (std::vector<float>{1.0f, 2.0f}));
  make_fp32_max()->accumulate(acc2, in);
  EXPECT_EQ(floats_of(acc2), (std::vector<float>{3.0f, 5.0f}));
}

TEST(SatInt, ReducesPackedLanesWithStats) {
  SatStats stats;
  const auto op = make_sat_int(4, &stats);
  auto acc = pack_signed_lanes(std::vector<std::int32_t>{6, 0}, 4);
  const auto in = pack_signed_lanes(std::vector<std::int32_t>{5, -3}, 4);
  op->accumulate(acc, in);
  const auto lanes = unpack_signed_lanes(acc, 2, 4);
  EXPECT_EQ(lanes[0], 7);  // clipped
  EXPECT_EQ(lanes[1], -3);
  EXPECT_EQ(stats.clips, 1u);
  EXPECT_EQ(stats.additions, 2u);
}

TEST(SatInt, MismatchedLengthsThrow) {
  for (unsigned bits : {2u, 4u, 8u}) {
    SatStats stats;
    const auto op = make_sat_int(bits, &stats);
    ByteBuffer acc(5), in(4);
    EXPECT_THROW(op->accumulate(acc, in), std::logic_error) << bits;
    EXPECT_THROW(op->accumulate(in, acc), std::logic_error) << bits;
    EXPECT_EQ(stats.additions, 0u) << bits;
  }
}

TEST(SatInt, RejectsUnsupportedWidths) {
  EXPECT_THROW(make_sat_int(3, nullptr), std::logic_error);
  EXPECT_THROW(make_sat_int(16, nullptr), std::logic_error);
}

TEST(SatInt, NullStatsIsAllowed) {
  const auto op = make_sat_int(8, nullptr);
  auto acc = pack_signed_lanes(std::vector<std::int32_t>{1}, 8);
  const auto in = pack_signed_lanes(std::vector<std::int32_t>{2}, 8);
  EXPECT_NO_THROW(op->accumulate(acc, in));
  EXPECT_EQ(unpack_signed_lanes(acc, 1, 8)[0], 3);
}

TEST(Granularity, MatchesElementWidths) {
  EXPECT_EQ(make_fp32_sum()->granularity(), 4u);
  EXPECT_EQ(make_fp16_sum()->granularity(), 2u);
  EXPECT_EQ(make_fp32_min()->granularity(), 4u);
  EXPECT_EQ(make_sat_int(2, nullptr)->granularity(), 1u);
}

TEST(Names, AreStable) {
  EXPECT_EQ(make_fp32_sum()->name(), "fp32_sum");
  EXPECT_EQ(make_fp16_sum()->name(), "fp16_sum");
  EXPECT_EQ(make_sat_int(4, nullptr)->name(), "sat_int4");
}

}  // namespace
}  // namespace gcs::comm
