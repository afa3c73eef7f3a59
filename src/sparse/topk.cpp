#include "sparse/topk.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/check.h"
#include "kernels/kernels.h"

namespace gcs {

std::vector<std::uint32_t> top_k_indices(std::span<const float> x,
                                         std::size_t k) {
  TopKScratch scratch;
  scratch.hist.resize(kernels::kKeyHistSlots);
  kernels::active().key_hist(x.data(), x.size(), scratch.hist.data());
  std::vector<std::uint32_t> idx;
  top_k_from_key_hist(x, k, scratch, idx);
  return idx;
}

void top_k_from_key_hist(std::span<const float> x, std::size_t k,
                         TopKScratch& scratch,
                         std::vector<std::uint32_t>& idx) {
  k = std::min(k, x.size());
  if (k == 0) {
    idx.clear();
    return;
  }
  if (k == x.size()) {
    idx.resize(x.size());
    std::iota(idx.begin(), idx.end(), 0u);
    return;
  }
  // Threshold select: find t = the k-th largest |x|, then take every
  // magnitude > t plus the lowest-indexed ties at t, in ascending index
  // order. That set is exactly the (|v| desc, idx asc) top k, so this is
  // bit for bit the full-sort selection (the top_k_indices_reference
  // oracle in tests/oracles.h).
  //
  // t comes from the key histogram: walk the buckets from the top to the
  // one holding rank k, then rank only that bucket's members. A key above
  // the bucket's means a larger magnitude and one below a smaller one
  // (kernels::magnitude_key), so only coordinates in or above the bucket
  // can be > t or == t: the rest of the select works on those candidates
  // alone, with the same float compares a sweep over all of x would make
  // (NaN magnitudes included: they compare false either way).
  GCS_CHECK(scratch.hist.size() >= kernels::kKeyBuckets);
  const std::uint32_t* const hist = scratch.hist.data();
  std::size_t rank = k;
  std::uint32_t bucket = kernels::kKeyBuckets - 1;
  while (hist[bucket] < rank) {
    GCS_CHECK_MSG(bucket > 0, "top_k: key histogram counts fewer than k");
    rank -= hist[bucket];
    --bucket;
  }
  const auto& backend = kernels::active();
  // Sized for all of x once (the collect kernel's contract); pages past
  // the candidates actually written are never touched.
  if (scratch.candidates_size < x.size()) {
    scratch.candidates =
        std::make_unique_for_overwrite<std::uint32_t[]>(x.size());
    scratch.candidate_mags =
        std::make_unique_for_overwrite<float[]>(x.size());
    scratch.candidates_size = x.size();
  }
  std::uint32_t* const candidates = scratch.candidates.get();
  float* const mags = scratch.candidate_mags.get();
  const std::size_t n_cand = backend.collect_key_ge(
      x.data(), x.size(), bucket, candidates, mags);
  GCS_CHECK_MSG(n_cand == k - rank + hist[bucket],
                "top_k: key histogram disagrees with the data");
  // From here on only the compact candidate arrays are read. Members keep
  // ascending index order, so nth_element sees the sequence a full sweep
  // would hand it.
  auto& members = scratch.members;
  members.reserve(x.size());  // address space once, not memory
  members.clear();
  for (std::size_t c = 0; c < n_cand; ++c) {
    if (kernels::magnitude_key(mags[c]) == bucket) members.push_back(mags[c]);
  }
  std::nth_element(members.begin(),
                   members.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   members.end(), std::greater<float>());
  const float t = members[rank - 1];
  // Every magnitude > t, plus ties at t while k - #(> t) remain, in
  // ascending order; branch-free, since nearly every candidate is taken.
  // `idx` keeps its size across rounds, so the resize fills nothing.
  std::size_t ties_left = k - backend.count_gt(mags, n_cand, t);
  idx.resize(k);
  std::uint32_t* const out = idx.data();
  std::size_t taken = 0;
  for (std::size_t c = 0; c < n_cand && taken < k; ++c) {
    const bool above = mags[c] > t;
    const bool tie = !above && mags[c] >= t && ties_left > 0;
    out[taken] = candidates[c];
    taken += static_cast<std::size_t>(above || tie);
    ties_left -= static_cast<std::size_t>(tie);
  }
  idx.resize(taken);  // short of k only when t is NaN
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
