// Randomized Hadamard Transform (RHT) with the paper's partial rotation.
//
// THC rotates gradients with RHT before quantization to shrink the
// min..max range. A full transform on 2^l values runs l butterfly
// iterations (O(d log d)); the paper observes that stopping after l' <= l
// iterations ("partial rotation") is mathematically equivalent to splitting
// the vector into 2^l'-sized chunks and rotating each independently — which
// fits in GPU shared memory and is cheaper. We implement exactly that
// semantics and test the equivalence property directly.
//
// The "randomized" part multiplies by a diagonal of i.i.d. +-1 signs before
// the transform. All workers must agree on the signs, so they are derived
// from a shared (seed, round) pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gcs {

/// In-place fast Walsh–Hadamard transform over the first 2^l_iters
/// butterfly levels of `x`. `x.size()` must be a power of two and
/// 2^l_iters must divide x.size().
///
/// l_iters == log2(x.size()) is the full transform. Values are scaled by
/// 1/sqrt(2) per iteration so the (full) transform is orthonormal, making
/// partial rotation an orthonormal block-diagonal transform too.
void fwht(std::span<float> x, unsigned l_iters);

/// Full in-place orthonormal FWHT (all log2(size) iterations).
void fwht(std::span<float> x);

/// The inverse of fwht(x, l_iters). The orthonormal FWHT is an involution,
/// so this is the same computation; the alias exists for call-site clarity.
void fwht_inverse(std::span<float> x, unsigned l_iters);

/// Generates the shared +-1 sign diagonal for a given (seed, round).
/// Every worker calls this with identical arguments and obtains identical
/// signs (shared randomness, as in DRIVE/EDEN/THC).
std::vector<float> rht_signs(std::size_t size, std::uint64_t seed,
                             std::uint64_t round);

/// rht_signs(out.size(), seed, round) written into `out` in place.
void rht_signs(std::span<float> out, std::uint64_t seed,
               std::uint64_t round) noexcept;

/// Applies the sign diagonal in place: x[i] *= signs[i].
void apply_signs(std::span<float> x, std::span<const float> signs) noexcept;

/// Number of iterations for a full transform of `padded_size` (a power of 2).
unsigned full_iterations(std::size_t padded_size) noexcept;

/// The paper's shared-memory rule: the largest l' such that a 2^l'-float
/// chunk fits in `shared_memory_bytes`, clamped to [1, full_iterations].
unsigned partial_iterations(std::size_t padded_size,
                            std::size_t shared_memory_bytes) noexcept;

/// Randomized Hadamard Transform context: pads to a power of two, applies
/// the sign diagonal, then l' butterfly iterations. Forward + inverse.
class RhtTransform {
 public:
  /// `size`: logical vector length (padded internally to 2^l).
  /// `l_iters`: butterfly iterations (see partial_iterations); 0 = full.
  RhtTransform(std::size_t size, unsigned l_iters, std::uint64_t seed);

  std::size_t padded_size() const noexcept { return padded_; }
  unsigned iterations() const noexcept { return l_iters_; }
  /// Chunk width the partial transform mixes over (2^l_iters).
  std::size_t block_size() const noexcept {
    return std::size_t{1} << l_iters_;
  }

  /// out = H_partial * D_round * pad(x). `out.size()` must equal
  /// padded_size().
  void forward(std::span<const float> x, std::span<float> out,
               std::uint64_t round) const;

  /// x = unpad(D_round^-1 * H_partial^-1 * in). Inverse of forward().
  /// `in` is the workspace: the inverse butterflies run in place on it,
  /// so it holds H_partial^-1 * in on return.
  void inverse(std::span<float> in, std::span<float> x,
               std::uint64_t round) const;

  /// forward() with a precomputed sign diagonal (signs.size() ==
  /// padded_size(), as returned by rht_signs(padded_size(), seed, round)).
  /// Lets a caller rotating many workers in one round generate the shared
  /// signs once instead of once per worker; the copy + sign multiply is
  /// fused into a single pass.
  void forward(std::span<const float> x, std::span<float> out,
               std::span<const float> signs) const;

  /// inverse() with a precomputed sign diagonal; `in` is overwritten the
  /// same way.
  void inverse(std::span<float> in, std::span<float> x,
               std::span<const float> signs) const;

 private:
  std::size_t size_;
  std::size_t padded_;
  unsigned l_iters_;
  std::uint64_t seed_;
};

}  // namespace gcs
