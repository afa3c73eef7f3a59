// Tests for sparse/topk: exact selection, tie-breaking, reference parity.
#include "sparse/topk.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "oracles.h"

namespace gcs {
namespace {

TEST(TopK, SelectsLargestMagnitudes) {
  const std::vector<float> x{0.1f, -5.0f, 3.0f, 0.0f, -2.0f};
  const auto idx = top_k_indices(x, 2);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{1, 2}));
}

TEST(TopK, ResultSortedByIndex) {
  const std::vector<float> x{5.0f, 1.0f, 4.0f, 3.0f};
  const auto idx = top_k_indices(x, 3);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{0, 2, 3}));
}

TEST(TopK, KLargerThanSizeClamps) {
  const std::vector<float> x{1.0f, 2.0f};
  EXPECT_EQ(top_k_indices(x, 10).size(), 2u);
}

TEST(TopK, KZeroIsEmpty) {
  const std::vector<float> x{1.0f};
  EXPECT_TRUE(top_k_indices(x, 0).empty());
}

TEST(TopK, TieBreaksTowardLowerIndex) {
  const std::vector<float> x{2.0f, -2.0f, 2.0f};
  const auto idx = top_k_indices(x, 2);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{0, 1}));
}

TEST(TopK, AgreesWithReferenceOnRandomInputs) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.next_below(500);
    std::vector<float> x(n);
    for (auto& v : x) {
      // Coarse grid forces frequent ties.
      v = static_cast<float>(
              static_cast<int>(rng.next_below(21)) - 10) /
          2.0f;
    }
    const std::size_t k = rng.next_below(n + 1);
    EXPECT_EQ(top_k_indices(x, k), top_k_indices_reference(x, k))
        << "n=" << n << " k=" << k;
  }
}

TEST(TopJ, ByValueNotMagnitude) {
  const std::vector<float> scores{-9.0f, 1.0f, 5.0f};
  const auto idx = top_j_by_value(scores, 2);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{1, 2}));
}

TEST(TopJ, DeterministicUnderTies) {
  const std::vector<float> scores{1.0f, 1.0f, 1.0f, 1.0f};
  EXPECT_EQ(top_j_by_value(scores, 2), (std::vector<std::uint32_t>{0, 1}));
}

TEST(TopK, SelectionCoversExactlyK) {
  Rng rng(9);
  std::vector<float> x(1000);
  for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
  const auto idx = top_k_indices(x, 100);
  ASSERT_EQ(idx.size(), 100u);
  const std::set<std::uint32_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 100u);
  // Every selected magnitude >= every unselected magnitude.
  float min_selected = 1e30f;
  for (auto i : idx) min_selected = std::min(min_selected, std::fabs(x[i]));
  for (std::uint32_t i = 0; i < x.size(); ++i) {
    if (uniq.count(i) == 0) {
      EXPECT_LE(std::fabs(x[i]), min_selected + 1e-6f);
    }
  }
}

}  // namespace
}  // namespace gcs
