#include "lowrank/powersgd_step.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "kernels/kernels.h"

namespace gcs {

std::size_t effective_rank(std::size_t rows, std::size_t cols,
                           std::size_t rank) noexcept {
  return std::min({rank, rows, cols});
}

PowerSgdLayerState PowerSgdLayerState::init(std::size_t rows, std::size_t cols,
                                            std::size_t rank, Rng& rng) {
  PowerSgdLayerState st;
  st.rows = rows;
  st.cols = cols;
  st.rank = effective_rank(rows, cols, rank);
  GCS_CHECK(st.rank >= 1);
  st.q.resize(cols * st.rank);
  for (float& v : st.q) v = static_cast<float>(rng.next_gaussian());
  return st;
}

void powersgd_compute_p(std::span<const float> m,
                        const PowerSgdLayerState& st, std::span<float> p) {
  GCS_CHECK(m.size() >= st.rows * st.cols);
  GCS_CHECK(p.size() >= st.rows * st.rank);
  GCS_CHECK(st.q.size() >= st.cols * st.rank);
  kernels::active().panel_mq(m.data(), st.q.data(), st.rows, st.cols,
                             st.rank, p.data());
}

void powersgd_compute_q(std::span<const float> m,
                        const PowerSgdLayerState& st,
                        std::span<const float> p, std::span<float> q_out) {
  GCS_CHECK(m.size() >= st.rows * st.cols);
  GCS_CHECK(p.size() >= st.rows * st.rank);
  GCS_CHECK(q_out.size() >= st.cols * st.rank);
  kernels::active().panel_mtp(m.data(), p.data(), st.rows, st.cols, st.rank,
                              q_out.data());
}

void powersgd_reconstruct(const PowerSgdLayerState& st,
                          std::span<const float> p, std::span<const float> q,
                          std::span<float> m_hat) {
  GCS_CHECK(m_hat.size() >= st.rows * st.cols);
  GCS_CHECK(p.size() >= st.rows * st.rank);
  GCS_CHECK(q.size() >= st.cols * st.rank);
  kernels::active().panel_pqt(p.data(), q.data(), st.rows, st.cols, st.rank,
                              m_hat.data());
}

}  // namespace gcs
