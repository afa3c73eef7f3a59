// Tests for lowrank: Gram-Schmidt quality and PowerSGD single-matrix steps.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "lowrank/orthogonalize.h"
#include "lowrank/powersgd_step.h"
#include "tensor/vecops.h"

namespace gcs {
namespace {

std::vector<float> random_matrix(std::size_t rows, std::size_t cols,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> m(rows * cols);
  for (auto& v : m) v = static_cast<float>(rng.next_gaussian());
  return m;
}

TEST(Orthogonalize, ProducesOrthonormalColumns) {
  for (auto [rows, cols] : {std::pair<std::size_t, std::size_t>{32, 4},
                            {100, 16},
                            {8, 8}}) {
    auto m = random_matrix(rows, cols, rows * 31 + cols);
    orthogonalize_columns(m, rows, cols);
    EXPECT_LT(orthonormality_residual(m, rows, cols), 1e-3)
        << rows << "x" << cols;
  }
}

TEST(Orthogonalize, HandlesDuplicateColumns) {
  // Two identical columns: the second must be replaced, not left zero.
  const std::size_t rows = 16, cols = 2;
  std::vector<float> m(rows * cols);
  Rng rng(5);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto v = static_cast<float>(rng.next_gaussian());
    m[i * cols] = v;
    m[i * cols + 1] = v;
  }
  orthogonalize_columns(m, rows, cols);
  EXPECT_LT(orthonormality_residual(m, rows, cols), 1e-3);
}

TEST(Orthogonalize, HandlesZeroMatrix) {
  std::vector<float> m(20 * 3, 0.0f);
  orthogonalize_columns(m, 20, 3);
  EXPECT_LT(orthonormality_residual(m, 20, 3), 1e-3);
}

TEST(Orthogonalize, FlopsFormulaIsQuadraticInRank) {
  const auto f1 = orthogonalize_flops(1000, 4);
  const auto f2 = orthogonalize_flops(1000, 8);
  EXPECT_GT(f2, 3 * f1);  // ~4x for 2x rank
}

TEST(EffectiveRank, ClampsToMatrixSides) {
  EXPECT_EQ(effective_rank(100, 50, 4), 4u);
  EXPECT_EQ(effective_rank(3, 50, 4), 3u);
  EXPECT_EQ(effective_rank(100, 2, 4), 2u);
}

TEST(PowerSgdStep, ExactForRankDeficientMatrix) {
  // M = u v^T has rank 1; a single power iteration with r >= 1 recovers it
  // exactly (up to fp error).
  const std::size_t rows = 24, cols = 17;
  Rng rng(7);
  std::vector<float> u(rows), v(cols);
  for (auto& x : u) x = static_cast<float>(rng.next_gaussian());
  for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
  std::vector<float> m(rows * cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m[i * cols + j] = u[i] * v[j];
  }

  auto st = PowerSgdLayerState::init(rows, cols, 2, rng);
  std::vector<float> p(rows * st.rank);
  powersgd_compute_p(m, st, p);
  orthogonalize_columns(p, rows, st.rank);
  std::vector<float> q(cols * st.rank);
  powersgd_compute_q(m, st, p, q);
  std::vector<float> m_hat(rows * cols);
  powersgd_reconstruct(st, p, q, m_hat);

  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR(m_hat[i], m[i], 1e-3f) << i;
  }
}

TEST(PowerSgdStep, SizeChecksThrow) {
  // The panels take flat pointers; the spans are checked one level up.
  Rng rng(5);
  const auto st = PowerSgdLayerState::init(6, 5, 2, rng);
  std::vector<float> m(6 * 5), p(6 * 2), q(5 * 2), m_hat(6 * 5);
  std::vector<float> short_m(6 * 5 - 1), short_p(6 * 2 - 1);
  EXPECT_THROW(powersgd_compute_p(short_m, st, p), std::logic_error);
  EXPECT_THROW(powersgd_compute_p(m, st, short_p), std::logic_error);
  EXPECT_THROW(powersgd_compute_q(m, st, short_p, q), std::logic_error);
  EXPECT_THROW(powersgd_reconstruct(st, p, q, short_m), std::logic_error);
}

TEST(PowerSgdStep, WarmStartConvergesToDominantSubspace) {
  // Iterating P/Q on a fixed matrix must monotonically improve the
  // approximation (power iteration convergence).
  const std::size_t rows = 40, cols = 30;
  auto m = random_matrix(rows, cols, 11);
  Rng rng(13);
  auto st = PowerSgdLayerState::init(rows, cols, 4, rng);

  double prev_err = 1e300;
  for (int iter = 0; iter < 6; ++iter) {
    std::vector<float> p(rows * st.rank);
    powersgd_compute_p(m, st, p);
    orthogonalize_columns(p, rows, st.rank);
    std::vector<float> q(cols * st.rank);
    powersgd_compute_q(m, st, p, q);
    st.q = q;
    std::vector<float> m_hat(rows * cols);
    powersgd_reconstruct(st, p, q, m_hat);
    double err = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i) {
      const double diff = m_hat[i] - m[i];
      err += diff * diff;
    }
    EXPECT_LE(err, prev_err * 1.001) << "iter " << iter;
    prev_err = err;
  }
  // Rank-4 approximation of a 40x30 Gaussian matrix captures a
  // substantial energy fraction.
  EXPECT_LT(prev_err, squared_norm(m));
}

TEST(PowerSgdStep, InitIsSeedDeterministic) {
  Rng r1(5), r2(5);
  const auto a = PowerSgdLayerState::init(10, 8, 3, r1);
  const auto b = PowerSgdLayerState::init(10, 8, 3, r2);
  EXPECT_EQ(a.q, b.q);
  EXPECT_EQ(a.rank, 3u);
}

}  // namespace
}  // namespace gcs
