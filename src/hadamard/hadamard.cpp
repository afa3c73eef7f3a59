#include "hadamard/hadamard.h"

#include <cmath>

#include "common/bits.h"
#include "common/check.h"
#include "common/rng.h"
#include "kernels/kernels.h"

namespace gcs {

void fwht(std::span<float> x, unsigned l_iters) {
  const std::size_t n = x.size();
  // The first l' butterfly levels only mix within 2^l'-aligned blocks, so
  // any size that is a whole number of blocks is valid (this is what makes
  // partial rotation cheaper to pad for than the full transform).
  GCS_CHECK_MSG(n > 0 && n % (std::size_t{1} << l_iters) == 0,
                "FWHT size " << n << " must be a multiple of 2^" << l_iters);
  // Iteration k pairs elements at stride 2^k; after l iterations, elements
  // within each 2^l-aligned block are fully mixed and distinct blocks have
  // not interacted — this is precisely the partial-rotation semantics.
  // Each level is one single-pass kernel (SIMD under AVX2, bit-identical
  // to the scalar butterflies by the kernel backend contract).
  //
  // Cache blocking: a butterfly at stride 2^k only touches its own
  // 2^{k+1}-aligned block, so the first levels can run to completion on
  // one L1-resident block at a time — the identical operations on the
  // identical pairs, but one memory sweep instead of one per level (at
  // 25MB payloads this is most of the rotation's wall-clock).
  const auto& backend = kernels::active();
  constexpr unsigned kBlockLog2 = 12;  // 2^12 floats = 16 KiB, L1-resident
  const unsigned blocked = l_iters < kBlockLog2 ? l_iters : kBlockLog2;
  const std::size_t block = std::size_t{1} << blocked;
  if (n > block && blocked > 1) {
    for (std::size_t base = 0; base < n; base += block) {
      for (unsigned k = 0; k < blocked; ++k) {
        backend.fwht_level(x.data() + base, block, std::size_t{1} << k);
      }
    }
  } else {
    for (unsigned k = 0; k < blocked; ++k) {
      backend.fwht_level(x.data(), n, std::size_t{1} << k);
    }
  }
  for (unsigned k = blocked; k < l_iters; ++k) {
    backend.fwht_level(x.data(), n, std::size_t{1} << k);
  }
}

void fwht(std::span<float> x) { fwht(x, full_iterations(x.size())); }

void fwht_inverse(std::span<float> x, unsigned l_iters) { fwht(x, l_iters); }

std::vector<float> rht_signs(std::size_t size, std::uint64_t seed,
                             std::uint64_t round) {
  std::vector<float> signs(size);
  rht_signs(signs, seed, round);
  return signs;
}

void rht_signs(std::span<float> out, std::uint64_t seed,
               std::uint64_t round) noexcept {
  Rng rng(derive_seed(seed, round));
  for (float& s : out) s = rng.next_sign();
}

void apply_signs(std::span<float> x, std::span<const float> signs) noexcept {
  const std::size_t n = x.size() < signs.size() ? x.size() : signs.size();
  kernels::active().mul_inplace(x.data(), signs.data(), n);
}

unsigned full_iterations(std::size_t padded_size) noexcept {
  return padded_size <= 1 ? 0u : log2_floor(padded_size);
}

unsigned partial_iterations(std::size_t padded_size,
                            std::size_t shared_memory_bytes) noexcept {
  const unsigned full = full_iterations(padded_size);
  if (full == 0) return 0;
  const std::size_t max_floats = shared_memory_bytes / sizeof(float);
  unsigned l = 0;
  while (l < full && (std::size_t{2} << l) <= max_floats) ++l;
  return l == 0 ? 1u : l;  // at least one mixing level
}

RhtTransform::RhtTransform(std::size_t size, unsigned l_iters,
                           std::uint64_t seed)
    : size_(size), seed_(seed) {
  GCS_CHECK(size > 0);
  const unsigned full = full_iterations(next_pow2(size));
  if (l_iters == 0 || l_iters >= full) {
    // Full transform: pad to the next power of two.
    l_iters_ = full;
    padded_ = next_pow2(size);
  } else {
    // Partial transform == independent 2^l'-blocks: pad only to a whole
    // number of blocks (much cheaper than next_pow2 for large d).
    l_iters_ = l_iters;
    const std::size_t block = std::size_t{1} << l_iters_;
    padded_ = ceil_div(size, block) * block;
  }
}

void RhtTransform::forward(std::span<const float> x, std::span<float> out,
                           std::uint64_t round) const {
  forward(x, out, rht_signs(padded_, seed_, round));
}

void RhtTransform::inverse(std::span<float> in, std::span<float> x,
                           std::uint64_t round) const {
  inverse(in, x, rht_signs(padded_, seed_, round));
}

void RhtTransform::forward(std::span<const float> x, std::span<float> out,
                           std::span<const float> signs) const {
  GCS_CHECK(x.size() == size_);
  GCS_CHECK(out.size() == padded_);
  GCS_CHECK(signs.size() == padded_);
  // Fused copy + sign multiply. The pad positions must be 0 * sign, not a
  // plain zero fill: a -1 sign makes the padded zero *negative* zero, and
  // those sign bits travel the wire inside the range-consensus floats.
  kernels::active().mul(x.data(), signs.data(), size_, out.data());
  for (std::size_t i = size_; i < padded_; ++i) out[i] = 0.0f * signs[i];
  fwht(out, l_iters_);
}

void RhtTransform::inverse(std::span<float> in, std::span<float> x,
                           std::span<const float> signs) const {
  GCS_CHECK(in.size() == padded_);
  GCS_CHECK(x.size() == size_);
  GCS_CHECK(signs.size() == padded_);
  fwht(in, l_iters_);  // orthonormal involution, in place
  // Signs are +-1, so the diagonal is self-inverse; the unpad is the
  // product's length (the same products apply_signs would form).
  kernels::active().mul(in.data(), signs.data(), size_, x.data());
}

}  // namespace gcs
