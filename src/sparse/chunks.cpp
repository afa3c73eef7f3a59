#include "sparse/chunks.h"

#include <algorithm>

#include "common/bits.h"
#include "common/check.h"
#include "kernels/kernels.h"
#include "numeric/half.h"
#include "sparse/topk.h"

namespace gcs {

std::size_t num_chunks(std::size_t d, std::size_t chunk_size) noexcept {
  return chunk_size == 0 ? 0 : ceil_div(d, chunk_size);
}

void chunk_squared_norms(std::span<const float> x, std::size_t chunk_size,
                         std::span<float> out) noexcept {
  if (chunk_size == 0) return;  // num_chunks() is 0: no scores
  kernels::active().chunk_sq_norms(x.data(), x.size(), chunk_size,
                                   out.data());
}

void round_scores_fp16(std::span<float> scores) noexcept {
  round_trip_half(scores);
}

std::vector<std::uint32_t> select_top_chunks(std::span<const float> scores,
                                             std::size_t j) {
  return top_j_by_value(scores, j);
}

void select_top_chunks(std::span<const float> scores, std::size_t j,
                       std::vector<std::uint32_t>& ids) {
  top_j_by_value(scores, j, ids);
}

std::size_t gather_chunks(std::span<const float> x, std::size_t chunk_size,
                          std::span<const std::uint32_t> chunk_ids,
                          std::span<float> out) {
  std::size_t pos = 0;
  for (std::uint32_t c : chunk_ids) {
    const std::size_t begin = static_cast<std::size_t>(c) * chunk_size;
    GCS_CHECK_MSG(begin < x.size(), "chunk id " << c << " out of range");
    const std::size_t end = std::min(begin + chunk_size, x.size());
    GCS_CHECK(pos + (end - begin) <= out.size());
    std::copy(x.begin() + static_cast<std::ptrdiff_t>(begin),
              x.begin() + static_cast<std::ptrdiff_t>(end),
              out.begin() + static_cast<std::ptrdiff_t>(pos));
    pos += end - begin;
  }
  return pos;
}

void scatter_chunks(std::span<const float> payload, std::size_t chunk_size,
                    std::span<const std::uint32_t> chunk_ids,
                    std::span<float> out) {
  std::fill(out.begin(), out.end(), 0.0f);
  std::size_t pos = 0;
  for (std::uint32_t c : chunk_ids) {
    const std::size_t begin = static_cast<std::size_t>(c) * chunk_size;
    GCS_CHECK_MSG(begin < out.size(), "chunk id " << c << " out of range");
    const std::size_t end = std::min(begin + chunk_size, out.size());
    GCS_CHECK(pos + (end - begin) <= payload.size());
    std::copy(payload.begin() + static_cast<std::ptrdiff_t>(pos),
              payload.begin() + static_cast<std::ptrdiff_t>(pos + (end - begin)),
              out.begin() + static_cast<std::ptrdiff_t>(begin));
    pos += end - begin;
  }
}

}  // namespace gcs
