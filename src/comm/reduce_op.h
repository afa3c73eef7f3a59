// Reduction operators for the collectives.
//
// A ReduceOp defines how an intermediate hop combines a received payload
// into its accumulator. The catalogue covers everything the paper's
// schemes need on the reduce path:
//   * FP32 / FP16 summation (the uncompressed baselines; FP16 payloads are
//     summed in FP32 and rounded back, mirroring GPU behaviour),
//   * FP32 min / max (the range- and norm-consensus rounds of THC / TopKC),
//   * saturating signed q-bit integer addition (THC's Sat operator).
//
// `granularity()` is the byte alignment a collective must respect when it
// splits a payload into blocks (ring all-reduce): an FP32 element must not
// straddle blocks, and packed q-bit lanes split on byte boundaries (all
// supported q divide 8, so a byte always holds whole lanes).
//
// The FP32/FP16 sums and the saturating add are element-wise folds on the
// kernel layer (kernels::Backend add, fp16_sum, sat_add_packed), so they
// are bit-identical across backends and never allocate.
//
// Non-associativity: FP16 sum and saturating add are order-sensitive, so
// every collective documents (and fixes) its reduction order; the local
// reference aggregator in comm/group.h reproduces the ring's order exactly.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "common/bytes.h"
#include "quant/satint.h"

namespace gcs::comm {

/// Abstract payload reduction. Implementations must be stateless apart from
/// optional metric counters so they can be shared across threads.
class ReduceOp {
 public:
  virtual ~ReduceOp() = default;

  /// acc[i] <- combine(acc[i], in[i]). Sizes must match exactly.
  virtual void accumulate(std::span<std::byte> acc,
                          std::span<const std::byte> in) const = 0;

  /// Byte alignment a payload split must respect.
  virtual std::size_t granularity() const noexcept = 0;

  virtual std::string name() const = 0;
};

/// FP32 element-wise sum.
std::unique_ptr<ReduceOp> make_fp32_sum();

/// FP16 element-wise sum (add in FP32, round back to FP16 per hop).
std::unique_ptr<ReduceOp> make_fp16_sum();

/// FP32 element-wise min / max (consensus reductions; fully associative).
std::unique_ptr<ReduceOp> make_fp32_min();
std::unique_ptr<ReduceOp> make_fp32_max();

/// Saturating signed `bits`-bit lane addition over packed lanes
/// (bits in {2, 4, 8}); clip events are recorded into `stats` if non-null.
/// `stats` must outlive the op and is mutated from collective threads —
/// pass one per concurrent reduction or an internally synchronized sink.
std::unique_ptr<ReduceOp> make_sat_int(unsigned bits, SatStats* stats);

}  // namespace gcs::comm
