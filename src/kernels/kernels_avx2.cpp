// AVX2 + F16C backend.
//
// This TU is compiled with -mavx2 -mf16c -ffp-contract=off (see
// CMakeLists.txt); nothing else in the library may assume those ISA
// extensions, and the dispatcher only hands this table out after CPUID
// confirms them. Bit-identity with the scalar reference is maintained by:
//   - using vdivps (not reciprocal estimates) and vroundps, which match
//     scalar '/' and std::floor exactly;
//   - never letting mul+add contract to FMA (-ffp-contract=off; FMA
//     intrinsics are not used);
//   - F16C conversions, which implement the same RNE semantics as
//     numeric/half for all finite values — groups containing an Inf/NaN
//     take a scalar fallback because VCVTPH2PS quietens signaling NaNs
//     where half_bits_to_float preserves them bit-for-bit;
//   - FWHT butterflies built from true vaddps/vsubps pairs (blend-merged),
//     not sign-flip tricks that would change NaN sign propagation;
//   - runt tails and fallback groups of the folds calling the scalar
//     reference table itself, so there is one copy of their semantics;
//   - the stream fills running whole lanes of one xoshiro stream, each
//     from its jumped-ahead start state, so every draw is the scalar
//     loop's draw at that position;
//   - the summing kernels (chunk scores, matmul panels, EF residual,
//     axpy, dense forward) keeping each output's pinned fold order and recomputing any block
//     whose result holds a NaN with the scalar reference, so a NaN
//     payload never depends on operand order.
#include "kernels/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "numeric/half.h"
#include "numeric/precision.h"

namespace gcs::kernels {
namespace {

constexpr float kInvSqrt2 = 0.70710678118654752440f;

/// True when any of the 8 floats has the all-ones exponent (Inf or NaN).
inline bool any_inf_nan(__m256 v) {
  const __m256i bits = _mm256_castps_si256(v);
  const __m256i exp = _mm256_and_si256(bits, _mm256_set1_epi32(0x7F800000));
  const __m256i hit =
      _mm256_cmpeq_epi32(exp, _mm256_set1_epi32(0x7F800000));
  return _mm256_testz_si256(hit, hit) == 0;
}

void fp32_to_fp16_avx2(const float* x, std::size_t n, std::uint16_t* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    if (any_inf_nan(v)) {
      // half_bits_to_float's NaN payload rule is replicated in software.
      for (std::size_t j = i; j < i + 8; ++j) {
        out[j] = float_to_half_bits(x[j]);
      }
      continue;
    }
    const __m128i h =
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), h);
  }
  for (; i < n; ++i) out[i] = float_to_half_bits(x[i]);
}

/// True when any of the 8 halves has the all-ones exponent (Inf or NaN).
inline bool any_half_inf_nan(__m128i h) {
  const __m128i exp = _mm_and_si128(h, _mm_set1_epi16(0x7C00));
  const __m128i hit = _mm_cmpeq_epi16(exp, _mm_set1_epi16(0x7C00));
  return _mm_testz_si128(hit, hit) == 0;
}

void fp16_to_fp32_avx2(const std::uint16_t* x, std::size_t n, float* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    if (any_half_inf_nan(h)) {
      // VCVTPH2PS quietens signaling NaNs; the reference preserves them.
      for (std::size_t j = i; j < i + 8; ++j) {
        out[j] = half_bits_to_float(x[j]);
      }
      continue;
    }
    _mm256_storeu_ps(out + i, _mm256_cvtph_ps(h));
  }
  for (; i < n; ++i) out[i] = half_bits_to_float(x[i]);
}

void gather_fp32_to_fp16_avx2(const float* x, const std::uint32_t* idx,
                              std::size_t n, std::uint16_t* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i iv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    const __m256 v = _mm256_i32gather_ps(x, iv, 4);
    if (any_inf_nan(v)) {
      for (std::size_t j = i; j < i + 8; ++j) {
        out[j] = float_to_half_bits(x[idx[j]]);
      }
      continue;
    }
    const __m128i h =
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), h);
  }
  for (; i < n; ++i) out[i] = float_to_half_bits(x[idx[i]]);
}

/// Scalar butterfly over [begin, end), identical expression to the scalar
/// backend (and thus identical bits: (a+b)*c has no contractible form).
inline void fwht_level_tail(float* x, std::size_t begin, std::size_t end,
                            std::size_t h) {
  for (std::size_t base = begin; base < end; base += 2 * h) {
    for (std::size_t i = base; i < base + h; ++i) {
      const float a = x[i];
      const float b = x[i + h];
      x[i] = (a + b) * kInvSqrt2;
      x[i + h] = (a - b) * kInvSqrt2;
    }
  }
}

void fwht_level_avx2(float* x, std::size_t n, std::size_t h) {
  const __m256 c = _mm256_set1_ps(kInvSqrt2);
  if (h >= 8) {
    for (std::size_t base = 0; base < n; base += 2 * h) {
      for (std::size_t i = base; i < base + h; i += 8) {
        const __m256 a = _mm256_loadu_ps(x + i);
        const __m256 b = _mm256_loadu_ps(x + i + h);
        _mm256_storeu_ps(x + i,
                         _mm256_mul_ps(_mm256_add_ps(a, b), c));
        _mm256_storeu_ps(x + i + h,
                         _mm256_mul_ps(_mm256_sub_ps(a, b), c));
      }
    }
    return;
  }
  // h in {1, 2, 4}: whole butterfly groups fit inside one 8-lane vector.
  // Build p = "a" lanes, q = "b" lanes, then blend add/sub results into
  // place. True vaddps/vsubps keep NaN propagation identical to scalar.
  const std::size_t vec_n = n & ~std::size_t{7};
  for (std::size_t i = 0; i < vec_n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    __m256 p, q;
    int blend_mask;
    if (h == 1) {
      p = _mm256_moveldup_ps(v);  // [x0 x0 x2 x2 | x4 x4 x6 x6]
      q = _mm256_movehdup_ps(v);  // [x1 x1 x3 x3 | x5 x5 x7 x7]
      blend_mask = 0xAA;          // odd lanes take (a - b)
    } else if (h == 2) {
      p = _mm256_shuffle_ps(v, v, _MM_SHUFFLE(1, 0, 1, 0));
      q = _mm256_shuffle_ps(v, v, _MM_SHUFFLE(3, 2, 3, 2));
      blend_mask = 0xCC;          // lanes 2,3 (and 6,7) take (a - b)
    } else {
      p = _mm256_permute2f128_ps(v, v, 0x00);  // [low | low]
      q = _mm256_permute2f128_ps(v, v, 0x11);  // [high | high]
      blend_mask = 0xF0;          // upper half takes (a - b)
    }
    const __m256 s = _mm256_add_ps(p, q);
    const __m256 d = _mm256_sub_ps(p, q);
    __m256 r;
    switch (blend_mask) {
      case 0xAA: r = _mm256_blend_ps(s, d, 0xAA); break;
      case 0xCC: r = _mm256_blend_ps(s, d, 0xCC); break;
      default: r = _mm256_blend_ps(s, d, 0xF0); break;
    }
    _mm256_storeu_ps(x + i, _mm256_mul_ps(r, c));
  }
  fwht_level_tail(x, vec_n, n, h);
}

/// In-register transpose of the 8x8 tile r[0..7] (r[k] lane e becomes
/// r[e] lane k).
inline void transpose8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

/// Four xoshiro256++ generators, one per 64-bit lane: the scalar
/// Rng::next_u64 step, lane-wise.
struct Xoshiro4 {
  __m256i s0, s1, s2, s3;

  Xoshiro4(const StreamLanes& lanes, std::size_t first) {
    const auto& st = lanes.state;
    const auto word = [&](std::size_t w) {
      return _mm256_setr_epi64x(
          static_cast<long long>(st[first][w]),
          static_cast<long long>(st[first + 1][w]),
          static_cast<long long>(st[first + 2][w]),
          static_cast<long long>(st[first + 3][w]));
    };
    s0 = word(0);
    s1 = word(1);
    s2 = word(2);
    s3 = word(3);
  }

  template <int K>
  static __m256i rotl(__m256i x) {
    return _mm256_or_si256(_mm256_slli_epi64(x, K),
                           _mm256_srli_epi64(x, 64 - K));
  }

  __m256i next() {
    const __m256i result =
        _mm256_add_epi64(rotl<23>(_mm256_add_epi64(s0, s3)), s0);
    const __m256i t = _mm256_slli_epi64(s1, 17);
    s2 = _mm256_xor_si256(s2, s0);
    s3 = _mm256_xor_si256(s3, s1);
    s1 = _mm256_xor_si256(s1, s2);
    s0 = _mm256_xor_si256(s0, s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = rotl<45>(s3);
    return result;
  }
};

static_assert(kStreamLanes == 8, "the fills run two 4-lane generators");

// The stream fills run the kStreamLanes lanes of StreamLanes as two
// 4-lane generators, each lane from its own segment start, so every lane
// produces exactly the draws the sequential loop produces at its
// positions; only the order in which positions are written changes. A
// stream whose draws all fall in lane 0's segment takes the scalar loop.

void uniform_fill_avx2(const StreamLanes& lanes, std::size_t n, float* out) {
  const std::size_t seg = lanes.seg;
  if (n <= seg) {
    scalar().uniform_fill(lanes, n, out);
    return;
  }
  Xoshiro4 a(lanes, 0), b(lanes, 4);
  // Low dwords of the four 64-bit lanes, twice (the blend keeps one copy).
  const __m256i low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m256 scale = _mm256_set1_ps(0x1.0p-24f);
  for (std::size_t t = 0; t < seg; t += 8) {
    // v[k] holds step t + k of all eight lanes; the transpose turns that
    // into eight consecutive draws per lane.
    __m256 v[8];
    for (auto& vk : v) {
      const __m256i ra =
          _mm256_permutevar8x32_epi32(_mm256_srli_epi64(a.next(), 40),
                                      low_dwords);
      const __m256i rb =
          _mm256_permutevar8x32_epi32(_mm256_srli_epi64(b.next(), 40),
                                      low_dwords);
      // draw >> 40 < 2^24 converts exactly; * 2^-24 is exact: next_float.
      vk = _mm256_mul_ps(
          _mm256_cvtepi32_ps(_mm256_blend_epi32(ra, rb, 0xF0)), scale);
    }
    transpose8(v);
    for (std::size_t j = 0; j < kStreamLanes; ++j) {
      const std::size_t pos = j * seg + t;
      if (pos + 8 <= n) {
        _mm256_storeu_ps(out + pos, v[j]);
      } else if (pos < n) {
        alignas(32) float tmp[8];
        _mm256_store_ps(tmp, v[j]);
        std::memcpy(out + pos, tmp, (n - pos) * sizeof(float));
      }
    }
  }
}

void sign_bits_fill_avx2(const StreamLanes& lanes, std::size_t n,
                         std::uint64_t* bits) {
  const std::size_t seg = lanes.seg;
  if (n <= seg) {
    scalar().sign_bits_fill(lanes, n, bits);
    return;
  }
  Xoshiro4 a(lanes, 0), b(lanes, 4);
  const __m256i top = _mm256_set1_epi64x(static_cast<long long>(1ull << 63));
  for (std::size_t t = 0; t < seg; t += 64) {
    // Each step shifts the lane's word right and drops the draw's top bit
    // in at bit 63, so after 64 steps step k's bit sits at bit k.
    __m256i wa = _mm256_setzero_si256(), wb = _mm256_setzero_si256();
    for (int k = 0; k < 64; ++k) {
      wa = _mm256_or_si256(_mm256_srli_epi64(wa, 1),
                           _mm256_and_si256(a.next(), top));
      wb = _mm256_or_si256(_mm256_srli_epi64(wb, 1),
                           _mm256_and_si256(b.next(), top));
    }
    alignas(32) std::uint64_t words[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(words), wa);
    _mm256_store_si256(reinterpret_cast<__m256i*>(words + 4), wb);
    for (std::size_t j = 0; j < kStreamLanes; ++j) {
      const std::size_t pos = j * seg + t;
      if (pos >= n) continue;
      const std::size_t valid = n - pos;
      bits[pos / 64] =
          valid >= 64 ? words[j] : words[j] & ((std::uint64_t{1} << valid) - 1);
    }
  }
}

void sign_apply_avx2(const float* x, const std::uint64_t* bits,
                     std::size_t first, std::size_t n, float* out) {
  // XOR of the sign bit is x * -1 for every non-NaN x (zeros, denormals
  // and infinities included); the multiply quiets a NaN and keeps its
  // sign, so a group holding a NaN takes the scalar reference.
  const __m256i select = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    if (_mm256_movemask_ps(_mm256_cmp_ps(v, v, _CMP_UNORD_Q)) != 0) {
      scalar().sign_apply(x + i, bits, first + i, 8, out + i);
      continue;
    }
    const std::size_t k = first + i;
    const unsigned shift = k % 64;
    std::uint64_t word = bits[k / 64] >> shift;
    if (shift > 56) word |= bits[k / 64 + 1] << (64 - shift);
    const __m256i lane_bits = _mm256_and_si256(
        _mm256_set1_epi32(static_cast<int>(word & 0xFFu)), select);
    const __m256i flip =
        _mm256_and_si256(_mm256_cmpeq_epi32(lane_bits, select), sign);
    _mm256_storeu_ps(out + i,
                     _mm256_xor_ps(v, _mm256_castsi256_ps(flip)));
  }
  scalar().sign_apply(x + i, bits, first + i, n - i, out + i);
}

void add_avx2(const float* a, const float* b, std::size_t n, float* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

/// Sequential min/max fold, identical to the scalar backend.
void min_max_tail(const float* x, std::size_t n, float* lo, float* hi) {
  float mn = x[0], mx = x[0];
  for (std::size_t i = 1; i < n; ++i) {
    mn = std::min(mn, x[i]);
    mx = std::max(mx, x[i]);
  }
  *lo = mn;
  *hi = mx;
}

void min_max_avx2(const float* x, std::size_t n, float* lo, float* hi) {
  if (n < 16) {
    min_max_tail(x, n, lo, hi);
    return;
  }
  // Lanewise blendv on v < acc / v > acc is exactly std::min/std::max per
  // comparison, and min/max folds are order-independent for ordered,
  // sign-normal values — but a NaN lane would stick and hide later values
  // in that lane where the sequential fold would have kept them, and a
  // -0.0 makes the fold order observable (std::min(+0,-0) keeps the first
  // argument seen). Detect either and redo the whole call scalar; both are
  // vanishingly rare in gradient data and the fast path must not change
  // their result.
  const __m256i neg_zero = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  __m256 vmn = _mm256_loadu_ps(x);
  __m256 vmx = vmn;
  __m256 bad = _mm256_or_ps(
      _mm256_cmp_ps(vmn, vmn, _CMP_UNORD_Q),
      _mm256_castsi256_ps(
          _mm256_cmpeq_epi32(_mm256_castps_si256(vmn), neg_zero)));
  std::size_t i = 8;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    bad = _mm256_or_ps(bad, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
    bad = _mm256_or_ps(
        bad, _mm256_castsi256_ps(
                 _mm256_cmpeq_epi32(_mm256_castps_si256(v), neg_zero)));
    vmn = _mm256_blendv_ps(vmn, v, _mm256_cmp_ps(v, vmn, _CMP_LT_OQ));
    vmx = _mm256_blendv_ps(vmx, v, _mm256_cmp_ps(v, vmx, _CMP_GT_OQ));
  }
  if (_mm256_movemask_ps(bad) != 0) {
    min_max_tail(x, n, lo, hi);
    return;
  }
  alignas(32) float mns[8], mxs[8];
  _mm256_store_ps(mns, vmn);
  _mm256_store_ps(mxs, vmx);
  float mn = mns[0], mx = mxs[0];
  for (int j = 1; j < 8; ++j) {
    mn = std::min(mn, mns[j]);
    mx = std::max(mx, mxs[j]);
  }
  for (; i < n; ++i) {
    std::uint32_t b;
    std::memcpy(&b, x + i, sizeof(b));
    if (x[i] != x[i] || b == 0x80000000u) {  // NaN/-0 tail: full-scalar redo
      min_max_tail(x, n, lo, hi);
      return;
    }
    mn = std::min(mn, x[i]);
    mx = std::max(mx, x[i]);
  }
  *lo = mn;
  *hi = mx;
}

/// The B-bit lane packer for 8 offset-binary lanes (each < 2^B): B bytes,
/// lane j at bits [j*B, (j+1)*B), LSB-first — the scalar packer's bytes.
/// The lanes narrow to one byte each, then adjacent fields merge pairwise
/// (bytes, 16-bit and 32-bit units) with constant shifts and masks.
template <unsigned B>
inline void pack8_lanes(__m256i raw, std::uint8_t* out) {
  const __m128i w16 = _mm_packus_epi32(_mm256_castsi256_si128(raw),
                                       _mm256_extracti128_si256(raw, 1));
  const __m128i w8 = _mm_packus_epi16(w16, w16);
  if constexpr (B == 8) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out), w8);
  } else {
    auto x = static_cast<std::uint64_t>(_mm_cvtsi128_si64(w8));
    constexpr std::uint64_t m1 = (1ull << (2 * B)) - 1;  // per 16-bit unit
    constexpr std::uint64_t m2 = (1ull << (4 * B)) - 1;  // per 32-bit unit
    x = (x | (x >> (8 - B))) & (m1 * 0x0001000100010001ull);
    x = (x | (x >> (16 - 2 * B))) & (m2 * 0x0000000100000001ull);
    x = (x | (x >> (32 - 4 * B))) & ((1ull << (8 * B)) - 1);
    std::memcpy(out, &x, B);  // a constant-size store
  }
}

template <unsigned B>
void thc_encode_lanes_w(const float* x, const float* u, std::size_t n,
                        float lo, float hi, unsigned q, std::uint8_t* out) {
  const float levels_f = static_cast<float>((1u << q) - 1u);
  const std::int32_t add = static_cast<std::int32_t>(
      (1u << (B - 1)) - (1u << (q - 1)));
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vwidth = _mm256_set1_ps(hi - lo);
  const __m256 vlevels = _mm256_set1_ps(levels_f);
  const __m256 vzero = _mm256_setzero_ps();
  const __m256 vone = _mm256_set1_ps(1.0f);
  const __m256i vadd = _mm256_set1_epi32(add);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 uu = _mm256_loadu_ps(u + i);
    // t = (v - lo) / (hi - lo) * levels, the exact scalar op order.
    const __m256 t = _mm256_mul_ps(
        _mm256_div_ps(_mm256_sub_ps(v, vlo), vwidth), vlevels);
    const __m256 fl = _mm256_floor_ps(t);
    const __m256 frac = _mm256_sub_ps(t, fl);
    const __m256 up =
        _mm256_and_ps(_mm256_cmp_ps(uu, frac, _CMP_LT_OQ), vone);
    __m256 level = _mm256_add_ps(fl, up);
    level = _mm256_blendv_ps(level, vzero,
                             _mm256_cmp_ps(t, vzero, _CMP_LE_OQ));
    level = _mm256_blendv_ps(level, vlevels,
                             _mm256_cmp_ps(t, vlevels, _CMP_GE_OQ));
    pack8_lanes<B>(_mm256_add_epi32(_mm256_cvttps_epi32(level), vadd), out);
    out += B;  // 8 lanes make exactly B bytes
  }
  scalar().thc_encode_lanes(x + i, u + i, n - i, lo, hi, q, B, out);
}

void thc_encode_lanes_avx2(const float* x, const float* u, std::size_t n,
                           float lo, float hi, unsigned q, unsigned b,
                           std::uint8_t* out) {
  // A degenerate range (every level is 0) takes the scalar reference.
  // The width is dispatched once per call, so the packers are
  // straight-line code.
  if (hi > lo) {
    switch (b) {
      case 2: thc_encode_lanes_w<2>(x, u, n, lo, hi, q, out); return;
      case 4: thc_encode_lanes_w<4>(x, u, n, lo, hi, q, out); return;
      case 8: thc_encode_lanes_w<8>(x, u, n, lo, hi, q, out); return;
      default: break;
    }
  }
  scalar().thc_encode_lanes(x, u, n, lo, hi, q, b, out);
}

/// The 8 B-bit lanes starting at `in` (B bytes), one per 32-bit lane.
template <unsigned B>
inline __m256i unpack8_lanes(const std::uint8_t* in) {
  if constexpr (B == 8) {
    return _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(in)));
  } else {
    using Word = std::conditional_t<B == 4, std::uint32_t, std::uint16_t>;
    Word word;
    std::memcpy(&word, in, B);  // a constant-size load
    const __m256i shifts =
        _mm256_setr_epi32(0, B, 2 * B, 3 * B, 4 * B, 5 * B, 6 * B, 7 * B);
    return _mm256_and_si256(
        _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<int>(word)), shifts),
        _mm256_set1_epi32((1 << B) - 1));
  }
}

template <unsigned B>
void thc_decode_lanes_w(const std::uint8_t* in, std::size_t n, float lo,
                        float hi, unsigned q, unsigned n_workers,
                        float* out) {
  const float levels = static_cast<float>((1u << q) - 1u);
  // Hoisted delta/lo_n are the scalar reference's float computations.
  const float delta = (hi - lo) / levels;
  const float lo_n = lo * static_cast<float>(n_workers);
  const std::int32_t base = static_cast<std::int32_t>(n_workers) *
                                (1 << (q - 1)) -
                            (1 << (B - 1));
  const __m256 vdelta = _mm256_set1_ps(delta);
  const __m256 vlo_n = _mm256_set1_ps(lo_n);
  const __m256i vbase = _mm256_set1_epi32(base);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 f = _mm256_cvtepi32_ps(
        _mm256_add_epi32(unpack8_lanes<B>(in), vbase));
    in += B;
    _mm256_storeu_ps(out + i,
                     _mm256_add_ps(vlo_n, _mm256_mul_ps(vdelta, f)));
  }
  scalar().thc_decode_lanes(in, n - i, lo, hi, q, B, n_workers, out + i);
}

void thc_decode_lanes_avx2(const std::uint8_t* in, std::size_t n, float lo,
                           float hi, unsigned q, unsigned b,
                           unsigned n_workers, float* out) {
  // A degenerate range decodes to lo * n everywhere: scalar reference.
  if (hi - lo > 0.0f) {
    switch (b) {
      case 2: thc_decode_lanes_w<2>(in, n, lo, hi, q, n_workers, out); return;
      case 4: thc_decode_lanes_w<4>(in, n, lo, hi, q, n_workers, out); return;
      case 8: thc_decode_lanes_w<8>(in, n, lo, hi, q, n_workers, out); return;
      default: break;
    }
  }
  scalar().thc_decode_lanes(in, n, lo, hi, q, b, n_workers, out);
}

void fp16_sum_avx2(std::uint16_t* acc, const std::uint16_t* in,
                   std::size_t n) {
  const __m128i exp = _mm_set1_epi16(0x7C00);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + i));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    const __m128i hit =
        _mm_or_si128(_mm_cmpeq_epi16(_mm_and_si128(a, exp), exp),
                     _mm_cmpeq_epi16(_mm_and_si128(b, exp), exp));
    if (_mm_testz_si128(hit, hit) == 0) {
      // An Inf/NaN operand takes the scalar reference (the rule
      // fp16_to_fp32 uses), so NaN results never depend on how
      // VCVTPH2PS/VADDPS propagate payloads.
      scalar().fp16_sum(acc + i, in + i, 8);
      continue;
    }
    // Both operands finite, so |sum| <= 2 * 65504 is a finite fp32 and
    // VCVTPS2PH rounds it (to +-Inf on overflow) exactly as
    // float_to_half_bits does.
    const __m256 sum = _mm256_add_ps(_mm256_cvtph_ps(a), _mm256_cvtph_ps(b));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(acc + i),
        _mm256_cvtps_ph(sum, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  }
  scalar().fp16_sum(acc + i, in + i, n - i);
}

/// Lanes that differ between two byte vectors (clip accounting).
inline std::uint64_t count_ne_epi8(__m256i x, __m256i y) {
  const auto same =
      static_cast<unsigned>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(x, y)));
  return 32u - static_cast<unsigned>(__builtin_popcount(same));
}

/// b = 2 or 4: each of the 8/B lane positions of a byte is widened to one
/// lane per byte. Offset-binary raw lanes add to r = ra + rb < 2^{B+1}
/// (no byte overflow), and Sat in the signed domain is the unsigned clamp
/// of r into [2^{B-1}, 2^{B-1} + 2^B - 1] followed by removing one offset.
template <unsigned B>
std::size_t sat_add_narrow_lanes(std::uint8_t* acc, const std::uint8_t* in,
                                 std::size_t nbytes, std::uint64_t* clips) {
  const __m256i mask = _mm256_set1_epi8(static_cast<char>((1u << B) - 1u));
  const __m256i lo = _mm256_set1_epi8(static_cast<char>(1u << (B - 1)));
  const __m256i hi = _mm256_set1_epi8(
      static_cast<char>((1u << (B - 1)) + (1u << B) - 1u));
  std::size_t i = 0;
  for (; i + 32 <= nbytes; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    __m256i out = _mm256_setzero_si256();
    for (unsigned shift = 0; shift < 8; shift += B) {
      // 16-bit shifts: bits crossing in from the neighbouring byte land
      // above the lane mask (down) or stay inside their byte (up).
      const __m256i r = _mm256_add_epi8(
          _mm256_and_si256(_mm256_srli_epi16(a, shift), mask),
          _mm256_and_si256(_mm256_srli_epi16(b, shift), mask));
      const __m256i c = _mm256_min_epu8(_mm256_max_epu8(r, lo), hi);
      *clips += count_ne_epi8(c, r);
      out = _mm256_or_si256(
          out, _mm256_slli_epi16(_mm256_sub_epi8(c, lo), shift));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), out);
  }
  return i;
}

std::uint64_t sat_add_packed_avx2(std::uint8_t* acc, const std::uint8_t* in,
                                  std::size_t nbytes, unsigned b) {
  std::uint64_t clips = 0;
  std::size_t i = 0;
  if (b == 8) {
    // Offset-binary ^ 0x80 is the two's-complement lane, so Sat is
    // vpaddsb; a lane clipped exactly where it differs from the wrapping
    // add.
    const __m256i flip = _mm256_set1_epi8(static_cast<char>(0x80));
    for (; i + 32 <= nbytes; i += 32) {
      const __m256i a = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i)),
          flip);
      const __m256i x = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i)),
          flip);
      const __m256i sat = _mm256_adds_epi8(a, x);
      clips += count_ne_epi8(sat, _mm256_add_epi8(a, x));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                          _mm256_xor_si256(sat, flip));
    }
  } else if (b == 4) {
    i = sat_add_narrow_lanes<4>(acc, in, nbytes, &clips);
  } else if (b == 2) {
    i = sat_add_narrow_lanes<2>(acc, in, nbytes, &clips);
  }
  return clips + scalar().sat_add_packed(acc + i, in + i, nbytes - i, b);
}

void abs_avx2(const float* x, std::size_t n, float* out) {
  const __m256 mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_and_ps(_mm256_loadu_ps(x + i), mask));
  }
  for (; i < n; ++i) out[i] = std::fabs(x[i]);
}

std::size_t count_gt_avx2(const float* x, std::size_t n, float t) {
  const __m256 vt = _mm256_set1_ps(t);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int m = _mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(x + i), vt, _CMP_GT_OQ));
    count += static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned>(m)));
  }
  for (; i < n; ++i) count += x[i] > t ? 1 : 0;
  return count;
}

std::size_t collect_ge_avx2(const float* x, std::size_t n, float t,
                            std::uint32_t* out) {
  const __m256 vt = _mm256_set1_ps(t);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    unsigned m = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(x + i), vt, _CMP_GE_OQ)));
    while (m != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctz(m));
      out[count++] = static_cast<std::uint32_t>(i + bit);
      m &= m - 1;
    }
  }
  for (; i < n; ++i) {
    if (x[i] >= t) out[count++] = static_cast<std::uint32_t>(i);
  }
  return count;
}

/// Lanes of v that are NaN.
inline __m256 nan_lanes(__m256 v) { return _mm256_cmp_ps(v, v, _CMP_UNORD_Q); }

// The kernels below (chunk scores, EF residual, axpy, panels) share
// one NaN rule: a vector block whose result holds a NaN is recomputed by
// the scalar reference. A sum or product is NaN exactly when a NaN entered
// it, and without NaNs IEEE add and mul are commutative, so a NaN-free
// result cannot depend on operand order; a NaN payload can (x86 keeps the
// first operand's), and which operand the compiler puts first in the
// scalar loop is its own choice. Recomputing keeps NaN payloads the
// reference's by construction.

void chunk_sq_norms_avx2(const float* x, std::size_t n, std::size_t chunk,
                         float* out) {
  // One chunk per lane: eight whole chunks are read as 8x8 tiles, each
  // tile transposed so lane c holds eight consecutive coordinates of
  // chunk c, and every lane runs its own sequential acc + x * x chain —
  // the scalar fold, eight chunks side by side. Chunk sizes that are not
  // a multiple of 8, the last partial chunk and the < 8 leftover chunks
  // take the scalar reference.
  std::size_t c = 0;
  if (chunk % 8 == 0) {
    const std::size_t whole = n / chunk;
    for (; c + 8 <= whole; c += 8) {
      const float* base = x + c * chunk;
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t t = 0; t < chunk; t += 8) {
        __m256 tile[8];
        for (std::size_t k = 0; k < 8; ++k) {
          tile[k] = _mm256_loadu_ps(base + k * chunk + t);
        }
        transpose8(tile);
        for (const __m256 v : tile) {
          acc = _mm256_add_ps(acc, _mm256_mul_ps(v, v));
        }
      }
      if (_mm256_movemask_ps(nan_lanes(acc)) != 0) {
        scalar().chunk_sq_norms(base, 8 * chunk, chunk, out + c);
      } else {
        _mm256_storeu_ps(out + c, acc);
      }
    }
  }
  scalar().chunk_sq_norms(x + c * chunk, n - c * chunk, chunk, out + c);
}

void sub_scaled_avx2(const float* y, const float* x, float s, std::size_t n,
                     float* out) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_sub_ps(_mm256_loadu_ps(y + i),
                                   _mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
    if (_mm256_movemask_ps(nan_lanes(v)) != 0) {
      scalar().sub_scaled(y + i, x + i, s, 8, out + i);
    } else {
      _mm256_storeu_ps(out + i, v);
    }
  }
  scalar().sub_scaled(y + i, x + i, s, n - i, out + i);
}

void axpy_avx2(float a, const float* x, std::size_t n, float* y) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_add_ps(_mm256_loadu_ps(y + i),
                                   _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
    if (_mm256_movemask_ps(nan_lanes(v)) != 0) {
      scalar().axpy(a, x + i, 8, y + i);
    } else {
      _mm256_storeu_ps(y + i, v);
    }
  }
  scalar().axpy(a, x + i, n - i, y + i);
}

// The dense forward runs eight samples per vector: a tile of the eight
// samples' inputs is transposed once (xt[i] holds x[s0..s0+7, i]), then
// four rows at a time accumulate b[o] + w[o, i] * x[s, i] in ascending i,
// each lane the scalar fold of one (sample, row). A long input row is cut
// into tiles whose partial sums wait in z between tiles (a float store
// and reload is exact). A block whose result holds a NaN is recomputed by
// the reference; a batch's last samples ride in zero-padded lanes.

constexpr std::size_t kForwardTile = 256;  // inputs per transposed tile

/// z[s0 + j, o .. o + R) for the m <= 8 samples of xt, continuing from
/// b (first tile) or the partials in z.
template <std::size_t R>
void dense_forward_rows(const float* w, const float* b, const float* xt,
                        std::size_t in, std::size_t i0, std::size_t len,
                        std::size_t out, std::size_t o, std::size_t m,
                        bool last, float* z, bool* nan) {
  __m256 acc[R];
  for (std::size_t r = 0; r < R; ++r) {
    if (i0 == 0) {
      acc[r] = _mm256_set1_ps(b[o + r]);
    } else {
      alignas(32) float part[8] = {};
      for (std::size_t j = 0; j < m; ++j) part[j] = z[j * out + o + r];
      acc[r] = _mm256_load_ps(part);
    }
  }
  for (std::size_t i = 0; i < len; ++i) {
    const __m256 xv = _mm256_load_ps(xt + i * 8);
    for (std::size_t r = 0; r < R; ++r) {
      const __m256 wv = _mm256_broadcast_ss(w + (o + r) * in + i0 + i);
      acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(wv, xv));
    }
  }
  const int valid = (1 << m) - 1;
  for (std::size_t r = 0; r < R; ++r) {
    if (last && (_mm256_movemask_ps(nan_lanes(acc[r])) & valid) != 0) {
      *nan = true;
    }
    alignas(32) float res[8];
    _mm256_store_ps(res, acc[r]);
    for (std::size_t j = 0; j < m; ++j) z[j * out + o + r] = res[j];
  }
}

void dense_forward_avx2(const float* w, const float* b, const float* x,
                        std::size_t batch, std::size_t in, std::size_t out,
                        float* z) {
  alignas(32) float xt[kForwardTile * 8];
  for (std::size_t s0 = 0; s0 < batch; s0 += 8) {
    const std::size_t m = std::min<std::size_t>(8, batch - s0);
    float* zs = z + s0 * out;
    if (in == 0) {
      for (std::size_t j = 0; j < m; ++j) {
        std::copy(b, b + out, zs + j * out);
      }
      continue;
    }
    bool nan = false;
    for (std::size_t i0 = 0; i0 < in; i0 += kForwardTile) {
      const std::size_t len = std::min(kForwardTile, in - i0);
      const bool last = i0 + len == in;
      std::size_t i = 0;
      if (m == 8) {
        for (; i + 8 <= len; i += 8) {
          __m256 tile[8];
          for (std::size_t j = 0; j < 8; ++j) {
            tile[j] = _mm256_loadu_ps(x + (s0 + j) * in + i0 + i);
          }
          transpose8(tile);
          for (std::size_t k = 0; k < 8; ++k) {
            _mm256_store_ps(xt + (i + k) * 8, tile[k]);
          }
        }
      }
      for (; i < len; ++i) {
        for (std::size_t j = 0; j < 8; ++j) {
          xt[i * 8 + j] = j < m ? x[(s0 + j) * in + i0 + i] : 0.0f;
        }
      }
      std::size_t o = 0;
      for (; o + 4 <= out; o += 4) {
        dense_forward_rows<4>(w, b, xt, in, i0, len, out, o, m, last, zs,
                              &nan);
      }
      for (; o < out; ++o) {
        dense_forward_rows<1>(w, b, xt, in, i0, len, out, o, m, last, zs,
                              &nan);
      }
    }
    if (nan) scalar().dense_forward(w, b, x + s0 * in, m, in, out, zs);
  }
}

// PowerSGD panels, vectorised for r = 4 (every other r takes the scalar
// reference). The vector paths never test for a == 0: the accumulator
// starts at +0.0f, and a sum is -0.0 only when both addends are, so it
// never holds -0.0. A skipped term with a finite partner is a product of
// +-0.0, and adding that leaves the accumulator unchanged, exactly as the
// skip does. With an Inf/NaN partner the product is NaN, and the NaN rule
// recomputes the block with the reference, which skips.

/// P = M Q for r = 4 on kPairs row pairs starting at row i0: one vector
/// holds the 4 rank lanes of rows i and i+1, [P[i, 0..3] | P[i+1, 0..3]],
/// i.e. the 8 contiguous floats p[i*4 .. i*4 + 8).
template <std::size_t kPairs>
void panel_mq_r4_rows(const float* m, const float* q, std::size_t i0,
                      std::size_t cols, float* p) {
  __m256 acc[kPairs];
  for (auto& a : acc) a = _mm256_setzero_ps();
  std::size_t k = 0;
  for (; k + 4 <= cols; k += 4) {
    const __m256 q0 = _mm256_broadcast_ps(
        reinterpret_cast<const __m128*>(q + (k + 0) * 4));
    const __m256 q1 = _mm256_broadcast_ps(
        reinterpret_cast<const __m128*>(q + (k + 1) * 4));
    const __m256 q2 = _mm256_broadcast_ps(
        reinterpret_cast<const __m128*>(q + (k + 2) * 4));
    const __m256 q3 = _mm256_broadcast_ps(
        reinterpret_cast<const __m128*>(q + (k + 3) * 4));
    for (std::size_t t = 0; t < kPairs; ++t) {
      const float* row = m + (i0 + 2 * t) * cols + k;
      // [M[i, k..k+3] | M[i+1, k..k+3]]; vpermilps then broadcasts one
      // column within each 128-bit half.
      const __m256 mm = _mm256_loadu2_m128(row + cols, row);
      const __m256 m0 = _mm256_permute_ps(mm, 0x00);
      const __m256 m1 = _mm256_permute_ps(mm, 0x55);
      const __m256 m2 = _mm256_permute_ps(mm, 0xAA);
      const __m256 m3 = _mm256_permute_ps(mm, 0xFF);
      acc[t] = _mm256_add_ps(acc[t], _mm256_mul_ps(m0, q0));
      acc[t] = _mm256_add_ps(acc[t], _mm256_mul_ps(m1, q1));
      acc[t] = _mm256_add_ps(acc[t], _mm256_mul_ps(m2, q2));
      acc[t] = _mm256_add_ps(acc[t], _mm256_mul_ps(m3, q3));
    }
  }
  for (; k < cols; ++k) {
    const __m256 qk =
        _mm256_broadcast_ps(reinterpret_cast<const __m128*>(q + k * 4));
    for (std::size_t t = 0; t < kPairs; ++t) {
      const float* row = m + (i0 + 2 * t) * cols + k;
      const __m256 mk =
          _mm256_set_m128(_mm_set1_ps(row[cols]), _mm_set1_ps(row[0]));
      acc[t] = _mm256_add_ps(acc[t], _mm256_mul_ps(mk, qk));
    }
  }
  __m256 nan = _mm256_setzero_ps();
  for (std::size_t t = 0; t < kPairs; ++t) {
    nan = _mm256_or_ps(nan, nan_lanes(acc[t]));
    _mm256_storeu_ps(p + (i0 + 2 * t) * 4, acc[t]);
  }
  if (_mm256_movemask_ps(nan) != 0) {
    scalar().panel_mq(m + i0 * cols, q, 2 * kPairs, cols, 4, p + i0 * 4);
  }
}

void panel_mq_avx2(const float* m, const float* q, std::size_t rows,
                   std::size_t cols, std::size_t r, float* p) {
  if (r != 4) {
    scalar().panel_mq(m, q, rows, cols, r, p);
    return;
  }
  // Four row pairs in flight hide the add latency of each pair's chain.
  std::size_t i = 0;
  for (; i + 8 <= rows; i += 8) panel_mq_r4_rows<4>(m, q, i, cols, p);
  for (; i + 2 <= rows; i += 2) panel_mq_r4_rows<1>(m, q, i, cols, p);
  if (i < rows) {
    scalar().panel_mq(m + i * cols, q, rows - i, cols, r, p + i * 4);
  }
}

void panel_mtp_avx2(const float* m, const float* p, std::size_t rows,
                    std::size_t cols, std::size_t r, float* q) {
  if (r != 4) {
    scalar().panel_mtp(m, p, rows, cols, r, q);
    return;
  }
  // Q's row c holds 4 rank lanes, so the 8 contiguous floats q[c*4 ..
  // c*4 + 8) are columns c and c+1 of the product: one vector updates two
  // columns, [M[i, c] x4 | M[i, c+1] x4] * [P[i, 0..3] | P[i, 0..3]].
  // Rows stream in ascending order (each column's fold order) and Q's
  // accumulators stay cache-resident between rows; an odd last column
  // runs the same fold in scalar. A column range is no sub-problem of the
  // reference (M's rows are strided), so a NaN anywhere in Q redoes the
  // call.
  std::fill(q, q + cols * 4, 0.0f);
  const __m256i pair0 = _mm256_setr_epi32(0, 0, 0, 0, 1, 1, 1, 1);
  const __m256i pair1 = _mm256_setr_epi32(2, 2, 2, 2, 3, 3, 3, 3);
  const __m256i pair2 = _mm256_setr_epi32(4, 4, 4, 4, 5, 5, 5, 5);
  const __m256i pair3 = _mm256_setr_epi32(6, 6, 6, 6, 7, 7, 7, 7);
  const auto update = [](float* qc, __m256 m, __m256 pv) {
    _mm256_storeu_ps(qc, _mm256_add_ps(_mm256_loadu_ps(qc),
                                       _mm256_mul_ps(m, pv)));
  };
  const std::size_t cols8 = cols & ~std::size_t{7};
  const std::size_t cols2 = cols & ~std::size_t{1};
  for (std::size_t i = 0; i < rows; ++i) {
    const float* mrow = m + i * cols;
    const __m256 pv =
        _mm256_broadcast_ps(reinterpret_cast<const __m128*>(p + i * 4));
    std::size_t c = 0;
    for (; c < cols8; c += 8) {
      const __m256 mm = _mm256_loadu_ps(mrow + c);
      float* qc = q + c * 4;
      update(qc, _mm256_permutevar8x32_ps(mm, pair0), pv);
      update(qc + 8, _mm256_permutevar8x32_ps(mm, pair1), pv);
      update(qc + 16, _mm256_permutevar8x32_ps(mm, pair2), pv);
      update(qc + 24, _mm256_permutevar8x32_ps(mm, pair3), pv);
    }
    for (; c < cols2; c += 2) {
      update(q + c * 4,
             _mm256_set_m128(_mm_set1_ps(mrow[c + 1]), _mm_set1_ps(mrow[c])),
             pv);
    }
    if (c < cols) {
      for (std::size_t j = 0; j < 4; ++j) q[c * 4 + j] += mrow[c] * p[i * 4 + j];
    }
  }
  __m256 nan = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= cols * 4; j += 8) {
    nan = _mm256_or_ps(nan, nan_lanes(_mm256_loadu_ps(q + j)));
  }
  bool any_nan = _mm256_movemask_ps(nan) != 0;
  for (; j < cols * 4; ++j) any_nan = any_nan || std::isnan(q[j]);
  if (any_nan) scalar().panel_mtp(m, p, rows, cols, r, q);
}

void panel_pqt_avx2(const float* p, const float* q, std::size_t rows,
                    std::size_t cols, std::size_t r, float* m_hat) {
  if (r != 4) {
    scalar().panel_pqt(p, q, rows, cols, r, m_hat);
    return;
  }
  // Q^T is staged one column block at a time (qt[k][c], 8 KiB on the
  // stack), then every row accumulates 8 output columns per vector over
  // k = 0..3; the block's columns past the last multiple of 8 run the
  // same fold in scalar. A row block holding a NaN is recomputed by the
  // reference (one row against a column block is a sub-problem of it).
  constexpr std::size_t kBlock = 512;
  alignas(32) float qt[4][kBlock];
  for (std::size_t c0 = 0; c0 < cols; c0 += kBlock) {
    const std::size_t w = std::min(kBlock, cols - c0);
    for (std::size_t c = 0; c < w; ++c) {
      for (std::size_t k = 0; k < 4; ++k) qt[k][c] = q[(c0 + c) * 4 + k];
    }
    const std::size_t w8 = w & ~std::size_t{7};
    for (std::size_t i = 0; i < rows; ++i) {
      const float* pi = p + i * 4;
      float* out = m_hat + i * cols + c0;
      const __m256 p0 = _mm256_set1_ps(pi[0]);
      const __m256 p1 = _mm256_set1_ps(pi[1]);
      const __m256 p2 = _mm256_set1_ps(pi[2]);
      const __m256 p3 = _mm256_set1_ps(pi[3]);
      __m256 nan = _mm256_setzero_ps();
      std::size_t c = 0;
      for (; c < w8; c += 8) {
        __m256 acc = _mm256_setzero_ps();
        acc = _mm256_add_ps(acc, _mm256_mul_ps(p0, _mm256_load_ps(&qt[0][c])));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(p1, _mm256_load_ps(&qt[1][c])));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(p2, _mm256_load_ps(&qt[2][c])));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(p3, _mm256_load_ps(&qt[3][c])));
        nan = _mm256_or_ps(nan, nan_lanes(acc));
        _mm256_storeu_ps(out + c, acc);
      }
      bool any_nan = _mm256_movemask_ps(nan) != 0;
      for (; c < w; ++c) {
        float acc = 0.0f;
        for (std::size_t k = 0; k < 4; ++k) acc += pi[k] * qt[k][c];
        any_nan = any_nan || std::isnan(acc);
        out[c] = acc;
      }
      if (any_nan) scalar().panel_pqt(pi, q + c0 * 4, 1, w, 4, out);
    }
  }
}

constexpr Backend kAvx2 = {
    "avx2",
    fp32_to_fp16_avx2,
    fp16_to_fp32_avx2,
    gather_fp32_to_fp16_avx2,
    fwht_level_avx2,
    uniform_fill_avx2,
    sign_bits_fill_avx2,
    sign_apply_avx2,
    add_avx2,
    min_max_avx2,
    thc_encode_lanes_avx2,
    thc_decode_lanes_avx2,
    fp16_sum_avx2,
    sat_add_packed_avx2,
    abs_avx2,
    count_gt_avx2,
    collect_ge_avx2,
    chunk_sq_norms_avx2,
    sub_scaled_avx2,
    axpy_avx2,
    dense_forward_avx2,
    panel_mq_avx2,
    panel_mtp_avx2,
    panel_pqt_avx2,
};

}  // namespace

const Backend& avx2() noexcept { return kAvx2; }

}  // namespace gcs::kernels

#else  // non-x86: the dispatcher never selects avx2(), but the symbol must
       // exist; alias the scalar reference.

namespace gcs::kernels {
const Backend& avx2() noexcept { return scalar(); }
}  // namespace gcs::kernels

#endif
