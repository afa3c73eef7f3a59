#include "sparse/topk.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <numeric>

#include "kernels/kernels.h"

namespace gcs {

std::vector<std::uint32_t> top_k_indices(std::span<const float> x,
                                         std::size_t k) {
  TopKScratch scratch;
  std::vector<std::uint32_t> idx;
  top_k_indices(x, k, scratch, idx);
  return idx;
}

void top_k_indices(std::span<const float> x, std::size_t k,
                   TopKScratch& scratch, std::vector<std::uint32_t>& idx) {
  k = std::min(k, x.size());
  idx.clear();
  if (k == 0) return;
  if (k == x.size()) {
    idx.resize(x.size());
    std::iota(idx.begin(), idx.end(), 0u);
    return;
  }
  // Threshold select instead of nth_element over an index permutation:
  // find t = the k-th largest |x| on a flat magnitude copy (cheap cache
  // behaviour), then collect the selected set in one ascending pass. The
  // selected set is exactly the (|v| desc, idx asc) top k: all
  // magnitudes > t plus the lowest-indexed ties at t — so this is
  // bit-for-bit the full-sort selection (cross-checked against the
  // top_k_indices_reference oracle in tests/oracles.h).
  const auto& backend = kernels::active();
  // Every scratch buffer is fully overwritten before any read, so reuse
  // never leaks one call's values into the next.
  scratch.mags.resize(x.size());
  float* const mags = scratch.mags.data();
  backend.abs(x.data(), x.size(), mags);
  // t = the k-th largest magnitude, found by exact radix select instead of
  // nth_element over a full d-sized copy (the old encode bottleneck at
  // 25MB payloads). Magnitudes are non-negative, so their IEEE bit
  // patterns order exactly like their values: histogram the top 16 bits,
  // walk buckets from the top to the one holding rank k, then rank only
  // that bucket's members — same t, two cheap passes.
  auto& hist = scratch.hist;
  hist.assign(std::size_t{1} << 16, 0u);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ++hist[std::bit_cast<std::uint32_t>(mags[i]) >> 16];
  }
  std::size_t rank = k;
  std::uint32_t bucket = (1u << 16) - 1u;
  while (hist[bucket] < rank) {
    rank -= hist[bucket];
    --bucket;
  }
  // Reserved at full size once: the bucket's population varies round to
  // round, and untouched capacity costs address space, not memory.
  auto& members = scratch.members;
  members.reserve(x.size());
  members.clear();
  for (std::size_t i = 0; i < x.size(); ++i) {
    if ((std::bit_cast<std::uint32_t>(mags[i]) >> 16) == bucket) {
      members.push_back(mags[i]);
    }
  }
  std::nth_element(members.begin(),
                   members.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   members.end(), std::greater<float>());
  const float t = members[rank - 1];
  const std::size_t greater = backend.count_gt(mags, x.size(), t);
  scratch.candidates.resize(x.size());
  const std::uint32_t* const candidates = scratch.candidates.data();
  const std::size_t n_cand =
      backend.collect_ge(mags, x.size(), t, scratch.candidates.data());
  idx.reserve(k);
  std::size_t ties_left = k - greater;
  for (std::size_t c = 0; c < n_cand && idx.size() < k; ++c) {
    const std::uint32_t i = candidates[c];
    if (mags[i] > t) {
      idx.push_back(i);
    } else if (ties_left > 0) {
      idx.push_back(i);
      --ties_left;
    }
  }
}

std::vector<std::uint32_t> top_j_by_value(std::span<const float> scores,
                                          std::size_t j) {
  std::vector<std::uint32_t> idx;
  top_j_by_value(scores, j, idx);
  return idx;
}

void top_j_by_value(std::span<const float> scores, std::size_t j,
                    std::vector<std::uint32_t>& idx) {
  j = std::min(j, scores.size());
  idx.resize(scores.size());
  std::iota(idx.begin(), idx.end(), 0u);
  auto greater = [&scores](std::uint32_t a, std::uint32_t b) noexcept {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  };
  if (j < scores.size()) {
    std::nth_element(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(j),
                     idx.end(), greater);
    idx.resize(j);
  }
  std::sort(idx.begin(), idx.end());
}

}  // namespace gcs
