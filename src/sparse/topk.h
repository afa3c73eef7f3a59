// Top-K selection by absolute value.
//
// Local TopK sparsification keeps each worker's K largest-|.| coordinates.
// Selection is the scheme's computational bottleneck on GPUs (poor memory
// locality); here it is an exact select over a histogram of magnitude keys
// (kernels::magnitude_key), cross-checked in tests against a full-sort
// oracle (top_k_indices_reference in tests/oracles.h).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace gcs {

/// Indices of the K largest |x[i]|, in ascending index order.
/// Ties broken toward the lower index (deterministic). K is clamped to
/// x.size().
std::vector<std::uint32_t> top_k_indices(std::span<const float> x,
                                         std::size_t k);

/// The working buffers of the select, owned by a caller that selects
/// every round (the TopK codec), so a steady-state selection allocates
/// nothing. Contents are unspecified between calls.
struct TopKScratch {
  /// The key histogram: kernels::kKeyHistSlots counts, of which the first
  /// kernels::kKeyBuckets hold the histogram.
  std::vector<std::uint32_t> hist;
  std::vector<float> members;  ///< the threshold bucket's |x|
  /// Indices in or above the threshold bucket, and their magnitudes.
  /// Sized for x.size() entries (the collect kernel's contract) but
  /// written only as far as the candidates reach, so the rest never
  /// becomes resident.
  std::unique_ptr<std::uint32_t[]> candidates;
  std::unique_ptr<float[]> candidate_mags;  ///< |x| at each candidate
  std::size_t candidates_size = 0;
};

/// top_k_indices(x, k) written into `idx` (resized to the selection),
/// working in `scratch`, after the key histogram: scratch.hist must
/// already hold x's key histogram (kernels::Backend::key_hist or
/// add_key_hist, the latter fused into the pass that wrote x). Reads x
/// again only at the coordinates in or above the threshold bucket. The
/// same selection, bit for bit.
void top_k_from_key_hist(std::span<const float> x, std::size_t k,
                         TopKScratch& scratch,
                         std::vector<std::uint32_t>& idx);

/// Indices of the J largest values (not |.|; used for chunk-score
/// selection where scores are already non-negative norms).
std::vector<std::uint32_t> top_j_by_value(std::span<const float> scores,
                                          std::size_t j);

/// top_j_by_value(scores, j) written into `idx`, reusing its capacity
/// (it needs scores.size() entries of working space).
void top_j_by_value(std::span<const float> scores, std::size_t j,
                    std::vector<std::uint32_t>& idx);

}  // namespace gcs
