#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "common/check.h"

namespace gcs {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Mix the stream id through splitmix so consecutive streams decorrelate.
  std::uint64_t s = seed ^ (0xA0761D6478BD642Full * (stream + 1));
  std::uint64_t a = splitmix64(s);
  std::uint64_t b = splitmix64(s);
  return a ^ rotl(b, 23);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9E3779B97F4A7C15ull;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless bounded generation with rejection for an
  // exactly uniform result.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_gaussian() noexcept {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  spare_gaussian_ = radius * std::sin(angle);
  has_spare_gaussian_ = true;
  return radius * std::cos(angle);
}

std::vector<std::uint32_t> Rng::permutation(std::size_t n) {
  std::vector<std::uint32_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint32_t>(i);
  shuffle(p);
  return p;
}

namespace {

using Poly = std::array<std::uint64_t, 4>;  // GF(2) polynomial, degree < 256

bool poly_bit(const std::uint64_t* p, std::size_t k) noexcept {
  return ((p[k / 64] >> (k % 64)) & 1u) != 0;
}

/// The characteristic polynomial's coefficients below x^256 (x^256 itself
/// is implicit). The engine has full period 2^256 - 1, so its
/// characteristic polynomial is primitive and equals the minimal
/// polynomial of any nonzero bit sequence it produces: Berlekamp–Massey
/// over 512 bits of one state bit recovers it.
Poly characteristic_polynomial() {
  constexpr std::size_t kBits = 512;
  std::array<std::uint8_t, kBits> seq{};
  Rng rng(1);
  for (auto& bit : seq) {
    bit = static_cast<std::uint8_t>(rng.state()[0] & 1u);
    rng.next_u64();
  }
  // Berlekamp–Massey over GF(2): c is the connection polynomial,
  // c(x) = 1 + c_1 x + ... + c_L x^L.
  std::array<std::uint8_t, kBits + 1> c{}, b{}, t{};
  c[0] = b[0] = 1;
  std::size_t len = 0, m = 1;
  for (std::size_t i = 0; i < kBits; ++i) {
    std::uint8_t disc = seq[i];
    for (std::size_t k = 1; k <= len; ++k) disc ^= c[k] & seq[i - k];
    if (disc == 0) {
      ++m;
      continue;
    }
    t = c;
    for (std::size_t k = 0; k + m <= kBits; ++k) c[k + m] ^= b[k];
    if (2 * len <= i) {
      len = i + 1 - len;
      b = t;
      m = 1;
    } else {
      ++m;
    }
  }
  GCS_CHECK_MSG(len == 256, "xoshiro256 minimal polynomial has degree "
                                << len << ", expected 256");
  // The characteristic polynomial is the reciprocal x^256 c(1/x): its
  // coefficient k is c_{256-k}.
  Poly p{};
  for (std::size_t k = 0; k < 256; ++k) {
    if (c[256 - k] != 0) p[k / 64] |= std::uint64_t{1} << (k % 64);
  }
  return p;
}

const Poly& char_poly() {
  static const Poly p = characteristic_polynomial();
  return p;
}

/// r * x mod P.
void mul_x(Poly& r, const Poly& p) noexcept {
  const bool carry = (r[3] >> 63) != 0;
  for (std::size_t w = 3; w > 0; --w) r[w] = (r[w] << 1) | (r[w - 1] >> 63);
  r[0] <<= 1;
  if (carry) {
    for (std::size_t w = 0; w < 4; ++w) r[w] ^= p[w];
  }
}

/// r * r mod P: squaring over GF(2) spreads the bits, then every term
/// x^k with k >= 256 folds down as x^{k-256} * (P - x^256).
void square(Poly& r, const Poly& p) noexcept {
  std::array<std::uint64_t, 8> wide{};
  for (std::size_t k = 0; k < 256; ++k) {
    if (poly_bit(r.data(), k)) {
      wide[2 * k / 64] |= std::uint64_t{1} << (2 * k % 64);
    }
  }
  for (std::size_t k = 511; k >= 256; --k) {
    if (!poly_bit(wide.data(), k)) continue;
    wide[k / 64] &= ~(std::uint64_t{1} << (k % 64));
    const std::size_t shift = k - 256;
    const std::size_t words = shift / 64, bits = shift % 64;
    for (std::size_t w = 0; w < 4; ++w) {
      wide[w + words] ^= p[w] << bits;
      if (bits != 0) wide[w + words + 1] ^= p[w] >> (64 - bits);
    }
  }
  for (std::size_t w = 0; w < 4; ++w) r[w] = wide[w];
}

}  // namespace

Rng::Jump Rng::jump_polynomial(std::uint64_t n) {
  const Poly& p = char_poly();
  Jump j;
  j.poly[0] = 1;  // x^0; squaring it is a no-op until n's top bit
  for (int bit = 63 - std::countl_zero(n | 1u); bit >= 0; --bit) {
    square(j.poly, p);
    if (((n >> bit) & 1u) != 0) mul_x(j.poly, p);
  }
  return j;
}

void Rng::jump(const Jump& j) noexcept {
  // state' = J(T) state = sum_k j_k T^k state, T the state update.
  std::array<std::uint64_t, 4> acc{};
  for (std::size_t k = 0; k < 256; ++k) {
    if (poly_bit(j.poly.data(), k)) {
      for (std::size_t w = 0; w < 4; ++w) acc[w] ^= s_[w];
    }
    next_u64();
  }
  s_ = acc;
}

StreamSplit::StreamSplit(std::size_t n)
    : n_(n),
      // At least one whole word per lane; a multiple of 64 draws keeps
      // each lane's sign bits in words of its own.
      seg_(std::max<std::size_t>(
          64, (n + 64 * kStreamLanes - 1) / (64 * kStreamLanes) * 64)),
      jump_(Rng::jump_polynomial(seg_)) {}

StreamLanes StreamSplit::lanes(std::uint64_t seed) const noexcept {
  StreamLanes out;
  out.seg = seg_;
  Rng rng(seed);
  out.state[0] = rng.state();
  for (std::size_t j = 1; j < kStreamLanes; ++j) {
    rng.jump(jump_);
    out.state[j] = rng.state();
  }
  return out;
}

}  // namespace gcs
