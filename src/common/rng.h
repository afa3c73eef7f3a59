// Deterministic, explicitly-seeded random number generation.
//
// Every stochastic component in GCS (datasets, initializers, stochastic
// rounding, Hadamard sign diagonals, the permutation ablation) draws from a
// gcs::Rng constructed from an explicit 64-bit seed, so every experiment is
// reproducible bit-for-bit across runs. We implement xoshiro256++ with a
// splitmix64 seeder rather than <random> engines because the standard
// distributions are not specified deterministically across library
// implementations, and the paper's methodology (comparing schemes on equal
// footing) depends on identical draws.
//
// A stream is sequential per draw but not per position: the xoshiro state
// update is linear over GF(2), so n steps are one polynomial in the
// transition matrix, x^n modulo its characteristic polynomial (Haramoto
// et al., "Efficient jump ahead for F2-linear random number generators",
// 2008), applied the way the reference jump() applies its constants.
// StreamSplit uses that to cut one stream into contiguous lane segments
// that the kernel layer fills side by side, byte-identical to the
// sequential loop.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gcs {

/// splitmix64 step; used to expand one seed into generator state and to
/// derive independent sub-seeds (e.g. one per worker, one per round).
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Derives a decorrelated child seed from (seed, stream). Children with
/// different stream ids behave as independent generators.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept;

/// xoshiro256++ PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  /// The generator whose next draws continue from xoshiro state `s`
  /// (as returned by state(); must not be all zero).
  static Rng from_state(const std::array<std::uint64_t, 4>& s) noexcept {
    Rng rng;
    rng.s_ = s;
    return rng;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept { return next_u64(); }

  // next_u64 is inlined (and next_sign branchless): the scalar stream
  // fills (kernels::Backend::uniform_fill, sign_bits_fill) run it tens of
  // millions of times per THC round, where an out-of-line call per draw
  // dominated the profile. Same xoshiro256++ steps, same values.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }
  std::uint32_t next_u32() noexcept { return static_cast<std::uint32_t>(next_u64() >> 32); }

  /// Uniform in [0, 1). 53-bit resolution.
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  /// Uniform in [0, 1). 24-bit resolution; used by stochastic rounding.
  float next_float() noexcept {
    return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Standard normal via Box–Muller (deterministic across platforms).
  double next_gaussian() noexcept;

  /// +1.0f or -1.0f with equal probability (RHT sign diagonal). Branchless:
  /// the top bit of the draw becomes the float's sign bit directly (a
  /// data-dependent branch here mispredicts half the time over millions of
  /// signs per round).
  float next_sign() noexcept {
    const std::uint32_t sign_bit =
        static_cast<std::uint32_t>(next_u64() >> 63) << 31;
    return std::bit_cast<float>(0x3F800000u | sign_bit);
  }

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// A random permutation of {0, ..., n-1}.
  std::vector<std::uint32_t> permutation(std::size_t n);

  /// x^n modulo the characteristic polynomial of the xoshiro256 state
  /// update (degree < 256, coefficient k in bit k % 64 of word k / 64).
  /// Costs about 2 log2(n) polynomial products: microseconds.
  struct Jump {
    std::array<std::uint64_t, 4> poly{};
  };
  static Jump jump_polynomial(std::uint64_t n);

  /// Advances the state exactly as jump_polynomial(n)'s n next_u64()
  /// calls would (256 state steps, whatever n). The spare Box–Muller
  /// value is left as it is.
  void jump(const Jump& j) noexcept;

  /// The xoshiro256 state words (s0..s3).
  const std::array<std::uint64_t, 4>& state() const noexcept { return s_; }

 private:
  std::array<std::uint64_t, 4> s_{};
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

/// Lanes a stream fill kernel runs side by side (kernels::Backend's
/// uniform_fill and sign_bits_fill).
inline constexpr std::size_t kStreamLanes = 8;

/// Where each lane of a stream fill starts: lane j writes the stream's
/// draws [j * seg, min((j + 1) * seg, n)) and state[j] is the stream's
/// state after j * seg draws (state[0] its start). seg is a multiple of
/// 64, so every lane starts on a word of a sign bit vector.
struct StreamLanes {
  std::size_t seg = 0;
  std::array<std::array<std::uint64_t, 4>, kStreamLanes> state{};
};

/// Cuts n-draw streams into kStreamLanes lane segments. The jump
/// polynomial for one segment is computed once here (when a codec is
/// built); lanes() then costs kStreamLanes - 1 jumps per stream.
class StreamSplit {
 public:
  explicit StreamSplit(std::size_t n = 0);

  std::size_t size() const noexcept { return n_; }

  /// The lane start states of Rng(seed)'s stream.
  StreamLanes lanes(std::uint64_t seed) const noexcept;

 private:
  std::size_t n_;
  std::size_t seg_;
  Rng::Jump jump_;
};

}  // namespace gcs
