// Error feedback (Seide et al. 2014; Karimireddy et al. 2019).
//
// Lossy compressors drop part of each gradient; error feedback keeps the
// dropped remainder in a per-worker memory and adds it back before the next
// round's compression, turning a biased compressor into an asymptotically
// convergent one. The paper applies EF to TopK and TopKC; PowerSGD carries
// its own variant (memory = accumulated gradient minus the shared low-rank
// reconstruction, Vogels et al. 2019).
//
// Semantics captured here:
//   y_i = x_i + m_i                       (compensate)
//   m_i' = y_i - contribution_i           (store what was NOT transmitted)
// where contribution_i is scheme-specific — what the compressor actually
// sent on behalf of worker i. Sparse schemes store it by exception
// (absorb_unsent: m = y by a buffer exchange, then zero the sent
// coordinates); PowerSGD writes
// y - reconstruction / n into the memory itself (mutable_memory), fused
// with its reconstruction pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gcs::core {

/// Per-worker error memories for an n-worker, d-dimensional pipeline.
class ErrorFeedback {
 public:
  ErrorFeedback(int world_size, std::size_t dimension, bool enabled);

  bool enabled() const noexcept { return enabled_; }

  /// y = grads[i] + memory[i]. If disabled, y = grads[i] unchanged.
  /// `y` must have size dimension.
  void compensate(int worker, std::span<const float> grad,
                  std::span<float> y) const;

  /// compensate() fused with TopK's key histogram of y (the
  /// add_key_hist kernel; key_hist after a copy when disabled). `hist`
  /// needs room for kernels::kKeyHistSlots counts.
  void compensate_key_hist(int worker, std::span<const float> grad,
                           std::span<float> y, std::uint32_t* hist) const;

  /// The absorb of a scheme that transmits selected coordinates exactly
  /// (TopK, TopKC), by exception: commits m_i' = y and returns the memory,
  /// and the caller zeroes each transmitted coordinate j (m_i'[j] = 0:
  /// exactly y[j] was sent). The same bits as a per-coordinate select on
  /// a sent mask, without the d-byte mask. The commit exchanges storage
  /// instead of copying d floats: the memory takes y's buffer, and `y`
  /// (the caller's round scratch) takes the old memory's, whose contents
  /// are then unspecified. Requires enabled() and y.size() == dimension.
  std::span<float> absorb_unsent(int worker, std::vector<float>& y);

  /// The worker's memory, for a scheme that writes its residual m_i'
  /// itself, fused with its own decode pass (PowerSGD). Requires
  /// enabled().
  std::span<float> mutable_memory(int worker);

  void reset();

  /// Elastic membership (DESIGN.md "Fault tolerance"): a new memory bank
  /// for the shrunken world whose row i is this bank's row survivors[i],
  /// bit-for-bit — the EF residual a surviving worker carries across an
  /// epoch swap. `survivors` must be strictly increasing current worker
  /// indices.
  ErrorFeedback remap(std::span<const int> survivors) const;

  /// Direct access for tests / diagnostics.
  std::span<const float> memory(int worker) const;

 private:
  int world_size_;
  std::size_t dimension_;
  bool enabled_;
  std::vector<std::vector<float>> memories_;
};

}  // namespace gcs::core
