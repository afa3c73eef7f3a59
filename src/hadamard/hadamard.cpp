#include "hadamard/hadamard.h"

#include <vector>

#include "common/bits.h"

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

namespace {

/// Butterfly levels of an RHT on `size` values: the full transform for
/// l_iters == 0 or l_iters >= log2(next_pow2(size)).
unsigned rht_iterations(std::size_t size, unsigned l_iters) {
  const unsigned full = full_iterations(next_pow2(size));
  return l_iters == 0 || l_iters >= full ? full : l_iters;
}

/// The full transform pads to the next power of two; a partial one
/// (independent 2^l'-blocks) only to a whole number of blocks, which is
/// much cheaper for large d.
std::size_t rht_padded(std::size_t size, unsigned iters) {
  if (iters == full_iterations(next_pow2(size))) return next_pow2(size);
  const std::size_t block = std::size_t{1} << iters;
  return ceil_div(size, block) * block;
}

}  // namespace

RhtTransform::RhtTransform(std::size_t size, unsigned l_iters,
                           std::uint64_t seed)
    : size_(size),
      padded_(rht_padded(size, rht_iterations(size, l_iters))),
      l_iters_(rht_iterations(size, l_iters)),
      seed_(seed),
      split_(padded_) {
  GCS_CHECK(size > 0);
}

void RhtTransform::sign_bits(std::uint64_t round,
                             std::span<std::uint64_t> bits) const {
  GCS_CHECK(bits.size() == sign_words());
  kernels::active().sign_bits_fill(split_.lanes(derive_seed(seed_, round)),
                                   padded_, bits.data());
}

void RhtTransform::check_sizes(std::size_t x_size,
                               std::size_t bits_size) const {
  GCS_CHECK(x_size == size_);
  GCS_CHECK(bits_size == sign_words());
}

void RhtTransform::forward(std::span<const float> x, std::span<float> out,
                           std::uint64_t round) const {
  std::vector<std::uint64_t> bits(sign_words());
  sign_bits(round, bits);
  forward(x, out, bits, [](std::size_t, std::span<float>) {});
}

void RhtTransform::inverse(std::span<float> in, std::span<float> x,
                           std::uint64_t round) const {
  GCS_CHECK(in.size() == padded_);
  std::vector<std::uint64_t> bits(sign_words());
  sign_bits(round, bits);
  inverse(x, bits, [&](std::size_t blk) {
    return in.subspan(blk * block_size(), block_size());
  });
}

}  // namespace gcs
