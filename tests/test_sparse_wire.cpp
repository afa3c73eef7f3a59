// Tests for sparse/sparse_wire: formats, byte budgets, merge semantics.
#include "sparse/sparse_wire.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "sparse/topk.h"

namespace gcs {
namespace {

SparseVector random_sparse(std::size_t d, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> dense(d);
  for (auto& v : dense) v = static_cast<float>(rng.next_gaussian());
  const auto idx = top_k_indices(dense, k);
  return extract_sparse(dense, idx);
}

TEST(SparseWire, ExtractPairsIndicesWithValues) {
  const std::vector<float> x{10.0f, 20.0f, 30.0f};
  const std::vector<std::uint32_t> idx{0, 2};
  const auto v = extract_sparse(x, idx);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.values[0], 10.0f);
  EXPECT_EQ(v.values[1], 30.0f);
}

TEST(SparseWire, Fp16FormatByteBudget) {
  // 4 (count) + 4 bytes/index + 2 bytes/value = the paper's 48 bits/entry.
  const auto v = random_sparse(1000, 100, 1);
  const auto buf = encode_sparse_fp16(v);
  EXPECT_EQ(buf.size(), 4u + 100u * 6u);
}

TEST(SparseWire, Fp16RoundTrip) {
  const auto v = random_sparse(5000, 250, 2);
  const auto decoded = decode_sparse_fp16(encode_sparse_fp16(v));
  ASSERT_EQ(decoded.size(), v.size());
  EXPECT_EQ(decoded.indices, v.indices);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(decoded.values[i], v.values[i],
                std::fabs(v.values[i]) / 1024.0f + 1e-6f);
  }
}

TEST(SparseWire, Delta16RoundTripSmallGaps) {
  const auto v = random_sparse(10000, 1000, 3);  // gaps << 65536
  const auto decoded = decode_sparse_delta16(encode_sparse_delta16(v));
  EXPECT_EQ(decoded.indices, v.indices);
}

TEST(SparseWire, Delta16HandlesHugeGaps) {
  SparseVector v;
  v.indices = {10, 200000, 200001};
  v.values = {1.0f, 2.0f, 3.0f};
  const auto decoded = decode_sparse_delta16(encode_sparse_delta16(v));
  ASSERT_EQ(decoded.indices.size(), 3u);
  EXPECT_EQ(decoded.indices[1], 200000u);
  EXPECT_EQ(decoded.values[2], 3.0f);
}

TEST(SparseWire, Delta16IsSmallerThanPlain) {
  const auto v = random_sparse(100000, 5000, 4);
  EXPECT_LT(encode_sparse_delta16(v).size(), encode_sparse_fp16(v).size());
}

TEST(SparseWire, MalformedPayloadThrows) {
  ByteBuffer junk(3);
  EXPECT_THROW(decode_sparse_fp16(junk), Error);
}

TEST(SparseWire, ScatterAdd) {
  SparseVector v;
  v.indices = {1, 3};
  v.values = {2.0f, -1.0f};
  std::vector<float> acc(5, 1.0f);
  scatter_add(v, acc);
  EXPECT_EQ(acc[1], 3.0f);
  EXPECT_EQ(acc[3], 0.0f);
  EXPECT_EQ(acc[0], 1.0f);
}

TEST(SparseWire, ScatterAddOutOfRangeThrows) {
  SparseVector v;
  v.indices = {7};
  v.values = {1.0f};
  std::vector<float> acc(5);
  EXPECT_THROW(scatter_add(v, acc), std::logic_error);
}

}  // namespace
}  // namespace gcs
