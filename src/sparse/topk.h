// Top-K selection by absolute value.
//
// Local TopK sparsification keeps each worker's K largest-|.| coordinates.
// Selection is the scheme's computational bottleneck on GPUs (poor memory
// locality); here we provide an exact nth_element-based selector plus a
// reference full-sort selector used to cross-check it in tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gcs {

/// Indices of the K largest |x[i]|, in ascending index order.
/// Ties broken toward the lower index (deterministic). K is clamped to
/// x.size().
std::vector<std::uint32_t> top_k_indices(std::span<const float> x,
                                         std::size_t k);

/// The working buffers of top_k_indices, owned by a caller that selects
/// every round (the TopK codec), so a steady-state selection allocates
/// nothing. Contents are unspecified between calls; `mags` holds |x|
/// after one, for a caller that wants to reuse it as d floats of scratch.
struct TopKScratch {
  std::vector<float> mags;                ///< |x|, x.size() floats
  std::vector<std::uint32_t> hist;        ///< 2^16 radix buckets
  std::vector<float> members;             ///< the threshold bucket's |x|
  std::vector<std::uint32_t> candidates;  ///< indices with |x| >= t
};

/// top_k_indices(x, k) written into `idx` (resized to the selection),
/// working in `scratch`. The same selection, bit for bit.
void top_k_indices(std::span<const float> x, std::size_t k,
                   TopKScratch& scratch, std::vector<std::uint32_t>& idx);

/// Indices of the J largest values (not |.|; used for chunk-score
/// selection where scores are already non-negative norms).
std::vector<std::uint32_t> top_j_by_value(std::span<const float> scores,
                                          std::size_t j);

/// top_j_by_value(scores, j) written into `idx`, reusing its capacity
/// (it needs scores.size() entries of working space).
void top_j_by_value(std::span<const float> scores, std::size_t j,
                    std::vector<std::uint32_t>& idx);

}  // namespace gcs
