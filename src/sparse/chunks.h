// Chunk partitioning and chunk-score machinery for TopKC.
//
// TopKC partitions the flat gradient into fixed-size chunks of C
// coordinates, all-reduces the per-chunk squared L2 norms (in FP16, as the
// paper specifies), and selects the J chunks with the largest aggregated
// norm. Because every worker sees the same aggregated scores and the
// selection is deterministic, the workers agree on the chunk set without
// further communication — that consensus is what makes the scheme
// all-reduce compatible.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gcs {

/// Number of chunks of size C covering d coordinates (last may be partial).
std::size_t num_chunks(std::size_t d, std::size_t chunk_size) noexcept;

/// Squared L2 norm of each chunk, the kernel layer's chunk_sq_norms (FP32,
/// sequential per chunk). out.size() must be num_chunks(d, C).
void chunk_squared_norms(std::span<const float> x, std::size_t chunk_size,
                         std::span<float> out) noexcept;

/// Rounds every score to FP16 (the wire precision of the consensus round).
/// Exposed separately so tests can verify consensus under FP16 rounding.
void round_scores_fp16(std::span<float> scores) noexcept;

/// Deterministically selects the J highest-scoring chunk ids (ties toward
/// the lower id). All workers run this on identical aggregated scores.
std::vector<std::uint32_t> select_top_chunks(std::span<const float> scores,
                                             std::size_t j);

/// select_top_chunks(scores, j) written into `ids`, reusing its capacity.
void select_top_chunks(std::span<const float> scores, std::size_t j,
                       std::vector<std::uint32_t>& ids);

/// Gathers the coordinates of the selected chunks into a dense payload
/// (concatenated in chunk-id order; the last chunk may be short).
/// Returns the number of gathered coordinates.
std::size_t gather_chunks(std::span<const float> x, std::size_t chunk_size,
                          std::span<const std::uint32_t> chunk_ids,
                          std::span<float> out);

/// Scatters a dense payload back into a zeroed d-sized vector.
void scatter_chunks(std::span<const float> payload, std::size_t chunk_size,
                    std::span<const std::uint32_t> chunk_ids,
                    std::span<float> out);

}  // namespace gcs
