// Wire format for TopK payloads: FP16 values + 32-bit indices.
//
// The paper follows the typical TopK implementations (BytePS, global-TopK
// SGD) and transmits the selected coordinates as FP16 values with plain
// 32-bit indices, i.e. b = 48K/d bits per coordinate. A delta-encoded
// 16-bit index variant is also provided because the paper discusses (and
// dismisses, footnote 2) it; it exists so the trade-off can be measured.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "numeric/half.h"

namespace gcs {

/// A sparse gradient slice: parallel arrays of coordinate indices and
/// values. Indices are strictly increasing.
struct SparseVector {
  std::vector<std::uint32_t> indices;
  std::vector<float> values;

  std::size_t size() const noexcept { return indices.size(); }
};

/// Extracts a SparseVector holding the given coordinates of x.
SparseVector extract_sparse(std::span<const float> x,
                            std::span<const std::uint32_t> indices);

/// Serializes as [count:u32][indices:u32 * count][values:fp16 * count].
/// This is the 48-bits-per-entry format from the paper (16-bit value +
/// 32-bit index).
ByteBuffer encode_sparse_fp16(const SparseVector& v);

/// Parses encode_sparse_fp16 output. Throws gcs::Error on malformed input.
SparseVector decode_sparse_fp16(std::span<const std::byte> data);

/// Fused equivalent of encode_sparse_fp16(extract_sparse(x, indices)):
/// gathers + converts the selected coordinates in one pass (SIMD via the
/// kernel layer). Byte-identical to the two-step composition.
ByteBuffer encode_sparse_fp16_gather(std::span<const float> x,
                                     std::span<const std::uint32_t> indices);

/// encode_sparse_fp16_gather written over `out`, reusing its capacity.
void encode_sparse_fp16_gather(std::span<const float> x,
                               std::span<const std::uint32_t> indices,
                               ByteBuffer& out);

/// A plain-format payload's entries, viewed in place in its bytes.
struct SparseFp16View {
  std::span<const std::uint32_t> indices;
  std::span<const std::uint16_t> halves;  ///< fp16 values
};

/// Parses a plain-format payload for a `dimension`-coordinate sum and
/// validates all of it: the count header must account for every byte and
/// every index must be < dimension. Throws gcs::Error otherwise, having
/// written nothing, so a caller can validate every payload before it
/// touches its output.
SparseFp16View view_sparse_fp16(std::span<const std::byte> data,
                                std::size_t dimension);

/// out = the sum of validated views, scatter-added in rank order onto
/// zeros (kernels::Backend::scatter_add_fp16): each view's entries add in
/// wire order, so repeated or descending indices sum as the sequential
/// loop does. Bit-identical to zero-filling out and applying
/// scatter_add(decode_sparse_fp16(payload), out) per payload.
void sum_sparse_fp16(std::span<const SparseFp16View> views,
                     std::span<float> out);

/// Delta-encoded variant: [count:u32][deltas:u16 * count][values:fp16 *
/// count]. Indices whose gap from the previous entry exceeds 65535 force
/// insertion of padding entries with value 0 (the "additional coordinates"
/// the paper's footnote describes). 32 bits per entry.
ByteBuffer encode_sparse_delta16(const SparseVector& v);

/// encode_sparse_delta16(extract_sparse(x, indices)) written over `out`
/// in place, values gathered and converted by the kernel layer: the same
/// bytes, without the SparseVector. `indices` must be strictly
/// increasing. Reserves room for the worst-case padding of x.size()
/// coordinates on first use, so later rounds reuse the capacity.
void encode_sparse_delta16_gather(std::span<const float> x,
                                  std::span<const std::uint32_t> indices,
                                  ByteBuffer& out);

/// Parses encode_sparse_delta16 output (padding entries are dropped on
/// decode only if their value is exactly zero AND duplicated; they are
/// harmless to aggregation either way).
SparseVector decode_sparse_delta16(std::span<const std::byte> data);

/// Validates a delta-format payload for a `dimension`-coordinate sum: the
/// count header must account for every byte and every entry's position
/// (the running sum of the deltas, without wrap-around) must be
/// < dimension. Throws gcs::Error otherwise.
void check_sparse_delta16(std::span<const std::byte> data,
                          std::size_t dimension);

/// Fused equivalent of scatter_add(decode_sparse_delta16(data), acc):
/// the same entries, merged and added in the same order, without
/// materializing a SparseVector. Bit-identical accumulation.
void scatter_add_sparse_delta16(std::span<const std::byte> data,
                                std::span<float> acc);

/// Adds a sparse vector into a dense accumulator: acc[idx] += value.
void scatter_add(const SparseVector& v, std::span<float> acc);

}  // namespace gcs
