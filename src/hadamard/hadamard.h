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
// from a shared (seed, round) pair, and kept as one bit per coordinate.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/check.h"
#include "common/rng.h"
#include "kernels/kernels.h"

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

/// Number of iterations for a full transform of `padded_size` (a power of 2).
unsigned full_iterations(std::size_t padded_size) noexcept;

/// The paper's shared-memory rule: the largest l' such that a 2^l'-float
/// chunk fits in `shared_memory_bytes`, clamped to [1, full_iterations].
unsigned partial_iterations(std::size_t padded_size,
                            std::size_t shared_memory_bytes) noexcept;

/// Randomized Hadamard Transform context: pads to a power of two (full)
/// or a whole number of blocks (partial), applies the sign diagonal, then
/// l' butterfly iterations. Forward + inverse.
///
/// The sign diagonal D is a bit vector, one bit per padded coordinate
/// (1 = -1): the top bits of the shared (seed, round) xoshiro stream,
/// filled on the kernel layer from lane starts whose jump polynomial is
/// computed once, here. Both directions run one 2^l' block at a time
/// (the whole vector for the full transform): the block is signed and
/// rotated while it is cache-resident, the identical butterflies on the
/// identical pairs as a level-by-level sweep.
class RhtTransform {
 public:
  /// `size`: logical vector length (padded internally to 2^l).
  /// `l_iters`: butterfly iterations (see partial_iterations); 0 = full.
  RhtTransform(std::size_t size, unsigned l_iters, std::uint64_t seed);

  std::size_t padded_size() const noexcept { return padded_; }
  unsigned iterations() const noexcept { return l_iters_; }
  /// Chunk width the partial transform mixes over (2^l_iters); the
  /// padded size for the full transform.
  std::size_t block_size() const noexcept {
    return std::size_t{1} << l_iters_;
  }
  /// Words of a sign bit vector: ceil(padded_size() / 64).
  std::size_t sign_words() const noexcept { return (padded_ + 63) / 64; }

  /// The round's sign diagonal into bits[0..sign_words()). Every worker
  /// calling this with the same round gets the same bits.
  void sign_bits(std::uint64_t round, std::span<std::uint64_t> bits) const;

  /// out = H_partial * D * pad(x), D given by `bits` (from sign_bits).
  /// After each block of `out` is rotated, on_block(blk, block span) runs
  /// while the block is still cache-resident.
  template <typename OnBlock>
  void forward(std::span<const float> x, std::span<float> out,
               std::span<const std::uint64_t> bits, OnBlock&& on_block) const;

  /// x = unpad(D^-1 * H_partial^-1 * y) for a rotated vector y given one
  /// block at a time: block_of(blk) returns a span of block_size() floats
  /// holding block blk of y, and the inverse butterflies run in place on
  /// it before the signed, unpadded values land in x.
  template <typename BlockOf>
  void inverse(std::span<float> x, std::span<const std::uint64_t> bits,
               BlockOf&& block_of) const;

  /// forward() with the round's signs generated for this call.
  void forward(std::span<const float> x, std::span<float> out,
               std::uint64_t round) const;

  /// inverse() of the rotated vector `in` with the round's signs
  /// generated for this call. `in` is the workspace: the inverse
  /// butterflies run in place on it.
  void inverse(std::span<float> in, std::span<float> x,
               std::uint64_t round) const;

 private:
  void check_sizes(std::size_t x_size, std::size_t bits_size) const;

  std::size_t size_;
  std::size_t padded_;
  unsigned l_iters_;
  std::uint64_t seed_;
  StreamSplit split_;
};

template <typename OnBlock>
void RhtTransform::forward(std::span<const float> x, std::span<float> out,
                           std::span<const std::uint64_t> bits,
                           OnBlock&& on_block) const {
  check_sizes(x.size(), bits.size());
  GCS_CHECK(out.size() == padded_);
  const auto& k = kernels::active();
  const std::size_t block = block_size();
  for (std::size_t begin = 0, blk = 0; begin < padded_;
       begin += block, ++blk) {
    float* o = out.data() + begin;
    const std::size_t real =
        begin < size_ ? std::min(block, size_ - begin) : 0;
    if (real > 0) k.sign_apply(x.data() + begin, bits.data(), begin, real, o);
    // The pad positions are 0 * sign, not a plain zero: a -1 sign makes a
    // padded zero *negative* zero, and those sign bits travel the wire
    // inside the range-consensus floats.
    std::fill(o + real, o + block, 0.0f);
    k.sign_apply(o + real, bits.data(), begin + real, block - real, o + real);
    const std::span<float> rotated(o, block);
    fwht(rotated, l_iters_);
    on_block(blk, rotated);
  }
}

template <typename BlockOf>
void RhtTransform::inverse(std::span<float> x,
                           std::span<const std::uint64_t> bits,
                           BlockOf&& block_of) const {
  check_sizes(x.size(), bits.size());
  const auto& k = kernels::active();
  const std::size_t block = block_size();
  for (std::size_t begin = 0, blk = 0; begin < padded_;
       begin += block, ++blk) {
    const std::span<float> y = block_of(blk);
    GCS_CHECK(y.size() == block);
    fwht(y, l_iters_);  // orthonormal involution, in place
    // Signs are +-1, so the diagonal is self-inverse; the unpad is the
    // product's length.
    const std::size_t real =
        begin < size_ ? std::min(block, size_ - begin) : 0;
    if (real > 0) k.sign_apply(y.data(), bits.data(), begin, real, x.data() + begin);
  }
}

}  // namespace gcs
