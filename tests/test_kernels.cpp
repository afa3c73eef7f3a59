// Tests for src/kernels: the swappable single-pass codec kernel backends.
//
// The hard invariant is bit-identity: the AVX2 backend must produce the
// same bytes as the scalar reference for every kernel, and the fused
// kernel paths inside the codecs must produce the same wire bytes, EF
// residuals, and aggregates as the legacy multi-pass paths. These tests
// close the loop at three levels: per-kernel (randomized + exhaustive
// cross-backend checks), per-primitive (fused vs legacy composition), and
// per-scheme (whole rounds under both backends).
#include "kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "comm/group.h"
#include "comm/reduce_op.h"
#include "common/bytes.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/codec.h"
#include "core/factory.h"
#include "core/synthetic_grad.h"
#include "numeric/half.h"
#include "numeric/precision.h"
#include "quant/quantize.h"
#include "quant/satint.h"
#include "sparse/topk.h"
#include "tensor/layout.h"
#include "oracles.h"

namespace gcs {
namespace {

using kernels::Backend;

/// Forces a kernel backend for the current scope; restores auto-dispatch.
class BackendGuard {
 public:
  explicit BackendGuard(const char* name) {
    kernels::force_backend_for_testing(name);
  }
  ~BackendGuard() { kernels::force_backend_for_testing(nullptr); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
};

bool have_avx2() { return kernels::avx2_supported(); }

/// Input floats that stress every branch of the FP16 conversion: zeros,
/// denormals (both widths), NaN payloads, infinities, overflow, and
/// round-to-nearest-even boundary patterns.
std::vector<float> special_floats() {
  std::vector<float> v = {
      0.0f, -0.0f, 1.0f, -1.0f, 65504.0f, -65504.0f, 65520.0f, 65536.0f,
      1e-8f, -1e-8f, 5.96e-8f, 6.1e-5f, 6.097e-5f, 0.5f, 2.0f / 3.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::max(),
      std::numeric_limits<float>::lowest(),
  };
  // Signaling-NaN-adjacent and denormal bit patterns.
  for (std::uint32_t bits : {0x7F800001u, 0xFF800001u, 0x7FC00001u,
                             0x00000001u, 0x807FFFFFu, 0x00800000u,
                             0x387FC000u, 0x387FE000u, 0x33000000u}) {
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    v.push_back(f);
  }
  return v;
}

TEST(Kernels, BackendNamesAndDispatch) {
  EXPECT_STREQ(kernels::scalar().name, "scalar");
  {
    BackendGuard g("scalar");
    EXPECT_STREQ(kernels::backend_name(), "scalar");
  }
  if (have_avx2()) {
    BackendGuard g("avx2");
    EXPECT_STREQ(kernels::backend_name(), "avx2");
  }
  EXPECT_THROW(kernels::force_backend_for_testing("neon"), Error);
}

TEST(Kernels, Fp16ToFp32CrossBackendExhaustive) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  // Every possible half bit pattern, including every NaN payload.
  std::vector<std::uint16_t> bits(1u << 16);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i] = static_cast<std::uint16_t>(i);
  }
  std::vector<float> ref(bits.size()), got(bits.size());
  kernels::scalar().fp16_to_fp32(bits.data(), bits.size(), ref.data());
  kernels::avx2().fp16_to_fp32(bits.data(), bits.size(), got.data());
  EXPECT_EQ(std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)),
            0);
  // And the scalar kernel is literally the reference conversion.
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const float direct = half_bits_to_float(bits[i]);
    ASSERT_EQ(std::memcmp(&ref[i], &direct, sizeof(float)), 0) << i;
  }
}

TEST(Kernels, Fp32ToFp16CrossBackendRandomAndSpecial) {
  std::vector<float> x = special_floats();
  Rng rng(7);
  for (int i = 0; i < 200000; ++i) {
    // Uniform bit patterns cover denormals, NaNs, and extreme exponents.
    const auto bits = rng.next_u32();
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    x.push_back(f);
  }
  std::vector<std::uint16_t> ref(x.size());
  kernels::scalar().fp32_to_fp16(x.data(), x.size(), ref.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(ref[i], float_to_half_bits(x[i])) << "i=" << i;
  }
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  std::vector<std::uint16_t> got(x.size());
  kernels::avx2().fp32_to_fp16(x.data(), x.size(), got.data());
  EXPECT_EQ(ref, got);
  // Runt lengths hit the scalar tail of the vectorized loop.
  for (std::size_t n = 1; n <= 17; ++n) {
    std::vector<std::uint16_t> a(n), b(n);
    kernels::scalar().fp32_to_fp16(x.data(), n, a.data());
    kernels::avx2().fp32_to_fp16(x.data(), n, b.data());
    EXPECT_EQ(a, b) << "n=" << n;
  }
}

TEST(Kernels, GatherFp16CrossBackend) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(11);
  std::vector<float> x = special_floats();
  for (int i = 0; i < 5000; ++i) {
    x.push_back(static_cast<float>(rng.next_gaussian()));
  }
  for (std::size_t n : {1u, 7u, 8u, 33u, 1000u}) {
    std::vector<std::uint32_t> idx(n);
    for (auto& v : idx) {
      v = static_cast<std::uint32_t>(rng.next_u64() % x.size());
    }
    std::vector<std::uint16_t> a(n), b(n);
    kernels::scalar().gather_fp32_to_fp16(x.data(), idx.data(), n, a.data());
    kernels::avx2().gather_fp32_to_fp16(x.data(), idx.data(), n, b.data());
    EXPECT_EQ(a, b) << "n=" << n;
  }
}

TEST(Kernels, FwhtLevelCrossBackend) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(13);
  for (std::size_t n : {2u, 8u, 12u, 20u, 64u, 256u, 1024u}) {
    for (std::size_t h = 1; 2 * h <= n; h *= 2) {
      if (n % (2 * h) != 0) continue;
      std::vector<float> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = static_cast<float>(rng.next_gaussian());
      }
      // A NaN and a denormal must propagate identically (true add/sub in
      // the SIMD butterflies, no sign-trick shortcuts).
      if (n >= 8) {
        a[1] = std::numeric_limits<float>::quiet_NaN();
        a[5] = std::numeric_limits<float>::denorm_min();
      }
      b = a;
      kernels::scalar().fwht_level(a.data(), n, h);
      kernels::avx2().fwht_level(b.data(), n, h);
      ASSERT_EQ(std::memcmp(a.data(), b.data(), n * sizeof(float)), 0)
          << "n=" << n << " h=" << h;
    }
  }
}

/// Every backend to check: the scalar reference, and AVX2 when present.
std::vector<const Backend*> backends() {
  std::vector<const Backend*> out{&kernels::scalar()};
  if (have_avx2()) out.push_back(&kernels::avx2());
  return out;
}

/// memcmp over n floats that accepts the null data() of empty vectors.
bool same_floats(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// Lengths around a fill's lane segments: 0-17, odd, and seg +- 1.
std::vector<std::size_t> fill_lengths() {
  std::vector<std::size_t> n;
  for (std::size_t i = 0; i <= 17; ++i) n.push_back(i);
  for (std::size_t i : {63u, 64u, 65u, 511u, 512u, 513u, 1003u, 4097u,
                        70001u}) {
    n.push_back(i);
  }
  return n;
}

TEST(Kernels, UniformFillIsTheSequentialStream) {
  for (const std::size_t n : fill_lengths()) {
    for (std::uint64_t seed : {1ull, 0xDEADBEEFull}) {
      // The split of n itself, and one cut for a longer stream (so the
      // lanes run past n, or n ends one short of / one past a segment).
      const StreamSplit own(n), wide(n + 64 * 8);
      for (const StreamSplit* split : {&own, &wide}) {
        const StreamLanes lanes = split->lanes(seed);
        Rng rng(seed);
        std::vector<float> want(n);
        for (auto& u : want) u = rng.next_float();
        for (const Backend* backend : backends()) {
          std::vector<float> got(n + 1, -7.0f);  // one guard element
          backend->uniform_fill(lanes, n, got.data());
          ASSERT_TRUE(same_floats(got.data(), want.data(), n))
              << backend->name << " n=" << n;
          ASSERT_EQ(got[n], -7.0f) << backend->name << " wrote past n=" << n;
        }
      }
    }
  }
  // seg - 1, seg and seg + 1 of one split's segment (segment 1024).
  const StreamSplit split(8 * 1024);
  const StreamLanes lanes = split.lanes(3);
  ASSERT_EQ(lanes.seg, 1024u);
  for (const std::size_t n : {1023u, 1024u, 1025u, 8191u, 8192u}) {
    Rng rng(3);
    std::vector<float> want(n);
    for (auto& u : want) u = rng.next_float();
    for (const Backend* backend : backends()) {
      std::vector<float> got(n + 1, -7.0f);
      backend->uniform_fill(lanes, n, got.data());
      ASSERT_TRUE(same_floats(got.data(), want.data(), n))
          << backend->name << " n=" << n;
      ASSERT_EQ(got[n], -7.0f);
    }
  }
}

TEST(Kernels, SignBitsFillIsTheSequentialSignStream) {
  for (const std::size_t n : fill_lengths()) {
    const StreamSplit own(n), wide(n + 64 * 8);
    for (const StreamSplit* split : {&own, &wide}) {
      const StreamLanes lanes = split->lanes(11);
      const std::size_t words = (n + 63) / 64;
      std::vector<std::uint64_t> want(words, 0);
      Rng rng(11);
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.next_sign() < 0.0f) want[i / 64] |= std::uint64_t{1} << (i % 64);
      }
      for (const Backend* backend : backends()) {
        std::vector<std::uint64_t> got(words + 1, ~std::uint64_t{0});
        backend->sign_bits_fill(lanes, n, got.data());
        ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
            << backend->name << " n=" << n;
        ASSERT_EQ(got[words], ~std::uint64_t{0}) << backend->name << " n=" << n;
      }
    }
  }
}

TEST(Kernels, SignApplyIsTheSignMultiply) {
  // out = x * (bit ? -1 : 1) bit for bit: signed zeros, denormals,
  // infinities, and quiet and signaling NaNs with payloads (the multiply
  // quiets them and keeps their sign; a sign XOR would not).
  auto values = special_floats();
  for (std::uint32_t bits : {0x7FA00001u, 0xFFA12345u, 0x7FC0BEEFu,
                             0xFFC00000u, 0x80000001u}) {
    values.push_back(std::bit_cast<float>(bits));
  }
  Rng rng(17);
  for (std::size_t n : {0u, 1u, 5u, 8u, 9u, 100u, 1027u}) {
    for (std::size_t first : {0u, 3u, 60u, 64u}) {
      std::vector<float> x(n);
      std::vector<std::uint64_t> bits((first + n + 63) / 64 + 1);
      for (auto& w : bits) w = rng.next_u64();
      std::vector<float> want(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = i % 3 == 0 ? values[(i / 3) % values.size()]
                          : static_cast<float>(rng.next_gaussian());
        const std::size_t k = first + i;
        const float s = ((bits[k / 64] >> (k % 64)) & 1u) != 0 ? -1.0f : 1.0f;
        want[i] = x[i] * s;
      }
      for (const Backend* backend : backends()) {
        std::vector<float> got(n);
        backend->sign_apply(x.data(), bits.data(), first, n, got.data());
        ASSERT_TRUE(same_floats(got.data(), want.data(), n))
            << backend->name << " n=" << n << " first=" << first;
        auto in_place = x;  // out may alias x
        backend->sign_apply(in_place.data(), bits.data(), first, n,
                            in_place.data());
        ASSERT_TRUE(same_floats(in_place.data(), want.data(), n))
            << backend->name;
      }
    }
  }
}

TEST(Kernels, AbsCountCollectCrossBackend) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(17);
  for (std::size_t n : {1u, 5u, 8u, 100u, 1027u}) {
    std::vector<float> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<float>(rng.next_gaussian());
    }
    if (n >= 4) {
      x[0] = -0.0f;
      x[3] = std::numeric_limits<float>::quiet_NaN();
    }
    std::vector<float> a(n), b(n);
    kernels::scalar().abs(x.data(), n, a.data());
    kernels::avx2().abs(x.data(), n, b.data());
    ASSERT_EQ(std::memcmp(a.data(), b.data(), n * sizeof(float)), 0);
    const float t = 0.5f;
    EXPECT_EQ(kernels::scalar().count_gt(a.data(), n, t),
              kernels::avx2().count_gt(a.data(), n, t));
    std::vector<std::uint32_t> ia(n), ib(n);
    const auto ca = kernels::scalar().collect_ge(a.data(), n, t, ia.data());
    const auto cb = kernels::avx2().collect_ge(a.data(), n, t, ib.data());
    ASSERT_EQ(ca, cb);
    ia.resize(ca);
    ib.resize(cb);
    EXPECT_EQ(ia, ib);
  }
}

TEST(Kernels, AddCrossBackend) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(91);
  for (std::size_t n : {1u, 7u, 8u, 64u, 1029u}) {
    std::vector<float> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.next_gaussian());
      b[i] = static_cast<float>(rng.next_gaussian());
    }
    if (n >= 8) {
      a[1] = std::numeric_limits<float>::quiet_NaN();
      a[2] = std::numeric_limits<float>::infinity();
      b[2] = -std::numeric_limits<float>::infinity();  // inf + -inf = NaN
      a[5] = -0.0f;
      b[5] = -0.0f;  // -0 + -0 = -0, sign must survive
    }
    std::vector<float> ra(n), rb(n);
    kernels::scalar().add(a.data(), b.data(), n, ra.data());
    kernels::avx2().add(a.data(), b.data(), n, rb.data());
    ASSERT_EQ(std::memcmp(ra.data(), rb.data(), n * sizeof(float)), 0);
    // out == a is the in-place fp32 sum fold.
    auto ia = a, ib = a;
    kernels::scalar().add(ia.data(), b.data(), n, ia.data());
    kernels::avx2().add(ib.data(), b.data(), n, ib.data());
    ASSERT_EQ(std::memcmp(ia.data(), ra.data(), n * sizeof(float)), 0);
    ASSERT_EQ(std::memcmp(ib.data(), ra.data(), n * sizeof(float)), 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (std::isnan(a[i] + b[i])) continue;
      EXPECT_EQ(ra[i], a[i] + b[i]);
    }
  }
}

/// Bitwise equality, or both NaN (any payload): the comparison for a
/// reference written in another translation unit, where the compiler may
/// order the operands of a commutative op differently.
bool same_or_both_nan(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

TEST(Kernels, SubScaledCrossBackend) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(97);
  const auto specials = special_floats();
  for (std::size_t n : {1u, 7u, 8u, 9u, 64u, 1029u}) {
    std::vector<float> y(n), x(n);
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = static_cast<float>(rng.next_gaussian());
      x[i] = static_cast<float>(rng.next_gaussian());
      if (i % 5 == 1) y[i] = specials[i % specials.size()];
      if (i % 7 == 2) x[i] = specials[(i / 7) % specials.size()];
    }
    for (float s : {0.25f, 1.0f / 3.0f, -2.0f,
                    std::numeric_limits<float>::quiet_NaN()}) {
      std::vector<float> ra(n), rb(n);
      kernels::scalar().sub_scaled(y.data(), x.data(), s, n, ra.data());
      kernels::avx2().sub_scaled(y.data(), x.data(), s, n, rb.data());
      ASSERT_EQ(std::memcmp(ra.data(), rb.data(), n * sizeof(float)), 0)
          << "n=" << n << " s=" << s;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same_or_both_nan(ra[i], y[i] - x[i] * s)) << i;
      }
    }
  }
}

TEST(Kernels, AxpyCrossBackend) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(96);
  const auto specials = special_floats();
  for (std::size_t n : {1u, 7u, 8u, 9u, 64u, 1029u}) {
    std::vector<float> y(n), x(n);
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = static_cast<float>(rng.next_gaussian());
      x[i] = static_cast<float>(rng.next_gaussian());
      if (i % 5 == 1) y[i] = specials[i % specials.size()];
      if (i % 7 == 2) x[i] = specials[(i / 7) % specials.size()];
    }
    for (float a : {0.25f, -3.0f, 0.0f,
                    std::numeric_limits<float>::quiet_NaN()}) {
      auto ya = y, yb = y;
      kernels::scalar().axpy(a, x.data(), n, ya.data());
      kernels::avx2().axpy(a, x.data(), n, yb.data());
      ASSERT_EQ(std::memcmp(ya.data(), yb.data(), n * sizeof(float)), 0)
          << "n=" << n << " a=" << a;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same_or_both_nan(ya[i], y[i] + a * x[i])) << i;
      }
    }
  }
}

/// The dense forward's pinned fold (kernels.h).
std::vector<float> dense_forward_reference(const std::vector<float>& w,
                                           const std::vector<float>& b,
                                           const std::vector<float>& x,
                                           std::size_t batch, std::size_t in,
                                           std::size_t out) {
  std::vector<float> z(batch * out);
  for (std::size_t s = 0; s < batch; ++s) {
    for (std::size_t o = 0; o < out; ++o) {
      float acc = b[o];
      for (std::size_t i = 0; i < in; ++i) {
        acc = acc + w[o * in + i] * x[s * in + i];
      }
      z[s * out + o] = acc;
    }
  }
  return z;
}

TEST(Kernels, DenseForwardFollowsThePinnedFoldCrossBackend) {
  Rng rng(98);
  const auto specials = special_floats();
  // Odd batches (partial 8-sample blocks), odd rows (the 1-row tail) and
  // inputs past one 256-wide tile (partials carried through z).
  for (const auto& [batch, in, out] :
       std::vector<std::array<std::size_t, 3>>{{1, 1, 1},
                                               {3, 5, 7},
                                               {8, 64, 4},
                                               {9, 17, 13},
                                               {32, 64, 33},
                                               {17, 300, 6},
                                               {13, 1024, 5},
                                               {5, 0, 3}}) {
    for (const bool with_specials : {false, true}) {
      std::vector<float> w(in * out), b(out), x(batch * in);
      for (auto& v : w) v = static_cast<float>(rng.next_gaussian());
      for (auto& v : b) v = static_cast<float>(rng.next_gaussian());
      for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
      if (with_specials) {
        for (std::size_t i = 0; i < x.size(); i += 11) {
          x[i] = specials[i % specials.size()];
        }
        for (std::size_t i = 3; i < w.size(); i += 13) {
          w[i] = specials[(i / 13) % specials.size()];
        }
      }
      const auto want = dense_forward_reference(w, b, x, batch, in, out);
      std::vector<float> scalar_z(batch * out);
      kernels::scalar().dense_forward(w.data(), b.data(), x.data(), batch,
                                      in, out, scalar_z.data());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(same_or_both_nan(scalar_z[i], want[i]))
            << "batch=" << batch << " in=" << in << " out=" << out;
      }
      if (!have_avx2()) continue;
      std::vector<float> z(batch * out);
      kernels::avx2().dense_forward(w.data(), b.data(), x.data(), batch, in,
                                    out, z.data());
      ASSERT_EQ(std::memcmp(z.data(), scalar_z.data(), z.size() * sizeof(float)),
                0)
          << "batch=" << batch << " in=" << in << " out=" << out
          << " specials=" << with_specials;
    }
  }
}

/// The chunk-score fold the kernel is pinned to.
std::vector<float> chunk_norms_reference(const std::vector<float>& x,
                                         std::size_t chunk) {
  std::vector<float> out;
  for (std::size_t begin = 0; begin < x.size(); begin += chunk) {
    float acc = 0.0f;
    for (std::size_t i = begin; i < std::min(begin + chunk, x.size()); ++i) {
      acc = acc + x[i] * x[i];
    }
    out.push_back(acc);
  }
  return out;
}

TEST(Kernels, ChunkSqNormsCrossBackend) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(98);
  const auto specials = special_floats();
  for (std::size_t chunk : {1u, 3u, 8u, 16u, 24u, 64u, 128u}) {
    for (std::size_t n : {1u, 7u, 64u, 511u, 512u, 1000u, 4109u}) {
      for (int fill = 0; fill < 3; ++fill) {
        std::vector<float> x(n);
        for (std::size_t i = 0; i < n; ++i) {
          if (fill == 2) {
            x[i] = std::bit_cast<float>(
                static_cast<std::uint32_t>(rng.next_u64()));
          } else {
            x[i] = static_cast<float>(rng.next_gaussian());
            if (fill == 1 && i % 11 == 3) x[i] = specials[i % specials.size()];
          }
        }
        const std::size_t nc = (n + chunk - 1) / chunk;
        std::vector<float> ra(nc, 7.0f), rb(nc, 9.0f);
        kernels::scalar().chunk_sq_norms(x.data(), n, chunk, ra.data());
        kernels::avx2().chunk_sq_norms(x.data(), n, chunk, rb.data());
        ASSERT_EQ(std::memcmp(ra.data(), rb.data(), nc * sizeof(float)), 0)
            << "chunk=" << chunk << " n=" << n << " fill=" << fill;
        const auto ref = chunk_norms_reference(x, chunk);
        for (std::size_t c = 0; c < nc; ++c) {
          ASSERT_TRUE(same_or_both_nan(ra[c], ref[c]))
              << "chunk=" << chunk << " n=" << n << " c=" << c;
        }
      }
    }
  }
}

// ---- PowerSGD matmul panels ----

TEST(Kernels, PanelScalarSmallKnownProduct) {
  // M = [1 2; 3 4], Q = [5 6; 7 8] -> P = M Q = [19 22; 43 50].
  const std::vector<float> m{1, 2, 3, 4}, q{5, 6, 7, 8};
  std::vector<float> p(4);
  kernels::scalar().panel_mq(m.data(), q.data(), 2, 2, 2, p.data());
  EXPECT_EQ(p, (std::vector<float>{19, 22, 43, 50}));
  // M^T Q = [1 3; 2 4] [5 6; 7 8] = [26 30; 38 44].
  std::vector<float> qt(4);
  kernels::scalar().panel_mtp(m.data(), q.data(), 2, 2, 2, qt.data());
  EXPECT_EQ(qt, (std::vector<float>{26, 30, 38, 44}));
  // M Q^T = [1 2; 3 4] [5 7; 6 8] = [17 23; 39 53].
  std::vector<float> mh(4);
  kernels::scalar().panel_pqt(m.data(), q.data(), 2, 2, 2, mh.data());
  EXPECT_EQ(mh, (std::vector<float>{17, 23, 39, 53}));
  // (1x3) * (3x2): rectangular, with a zero-skipped term.
  const std::vector<float> a{1, 0, 3}, b{1, 0, 0, 1, 1, 1};
  std::vector<float> c(2);
  kernels::scalar().panel_mq(a.data(), b.data(), 1, 3, 2, c.data());
  EXPECT_EQ(c, (std::vector<float>{4, 3}));
}

TEST(Kernels, PanelScalarIdentityPreserves) {
  const std::vector<float> eye{1, 0, 0, 1}, b{2, 3, 4, 5};
  std::vector<float> c(4);
  kernels::scalar().panel_mq(eye.data(), b.data(), 2, 2, 2, c.data());
  EXPECT_EQ(c, b);
  kernels::scalar().panel_mtp(eye.data(), b.data(), 2, 2, 2, c.data());
  EXPECT_EQ(c, b);
}

TEST(Kernels, PanelScalarTransposesAgreeBitForBit) {
  // panel_mtp(M) is panel_mq on an explicit M^T and panel_pqt(P, Q) is
  // panel_mq(P, explicit Q^T): the same ascending folds with the same
  // skips, so the bits agree, not just the values.
  Rng rng(3);
  const std::size_t rows = 7, cols = 5, r = 4;
  std::vector<float> m(rows * cols), p(rows * r), q(cols * r);
  for (auto& v : m) v = static_cast<float>(rng.next_gaussian());
  for (auto& v : p) v = static_cast<float>(rng.next_gaussian());
  for (auto& v : q) v = static_cast<float>(rng.next_gaussian());
  m[3] = 0.0f;
  p[5] = -0.0f;
  std::vector<float> mt(cols * rows), qt(r * cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) mt[j * rows + i] = m[i * cols + j];
  }
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t k = 0; k < r; ++k) qt[k * cols + c] = q[c * r + k];
  }
  const auto& sc = kernels::scalar();
  std::vector<float> a(cols * r), b(cols * r);
  sc.panel_mtp(m.data(), p.data(), rows, cols, r, a.data());
  sc.panel_mq(mt.data(), p.data(), cols, rows, r, b.data());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
  std::vector<float> c1(rows * cols), c2(rows * cols);
  sc.panel_pqt(p.data(), q.data(), rows, cols, r, c1.data());
  sc.panel_mq(p.data(), qt.data(), rows, r, cols, c2.data());
  EXPECT_EQ(std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)), 0);
}

/// Fills x for a panel cross-check: 0 = Gaussian, 1 = Gaussian seeded with
/// exact zeros, -0.0, denormals, Inf and NaN payloads (the zero-skip and
/// its interaction with non-finite partners), 2 = random fp32 bit
/// patterns.
void fill_panel_operand(std::vector<float>& x, int fill, Rng& rng) {
  static const float kSpecials[] = {
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -1e-39f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::bit_cast<float>(0x7F800001u),  // signaling NaN
      std::bit_cast<float>(0xFFC00002u),  // negative NaN with a payload
  };
  for (auto& v : x) {
    if (fill == 2) {
      v = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next_u64()));
      continue;
    }
    v = static_cast<float>(rng.next_gaussian());
    if (fill == 1) {
      const std::uint64_t roll = rng.next_u64() % 16;
      if (roll < 3) v = roll == 0 ? -0.0f : 0.0f;  // skipped terms
      else if (roll == 3) v = kSpecials[rng.next_u64() % std::size(kSpecials)];
    }
  }
}

/// All three panels, scalar vs AVX2, byte for byte.
void expect_panels_identical(std::size_t rows, std::size_t cols,
                             std::size_t r, int fill, Rng& rng) {
  std::vector<float> m(rows * cols), p(rows * r), q(cols * r);
  fill_panel_operand(m, fill, rng);
  fill_panel_operand(p, fill, rng);
  fill_panel_operand(q, fill, rng);
  const auto& sc = kernels::scalar();
  const auto& vx = kernels::avx2();
  const auto same = [](const std::vector<float>& a,
                       const std::vector<float>& b) {
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };
  std::vector<float> a(rows * r, 1.0f), b(rows * r, 2.0f);
  sc.panel_mq(m.data(), q.data(), rows, cols, r, a.data());
  vx.panel_mq(m.data(), q.data(), rows, cols, r, b.data());
  ASSERT_TRUE(same(a, b)) << "panel_mq rows=" << rows << " cols=" << cols
                          << " r=" << r << " fill=" << fill;
  a.assign(cols * r, 1.0f);
  b.assign(cols * r, 2.0f);
  sc.panel_mtp(m.data(), p.data(), rows, cols, r, a.data());
  vx.panel_mtp(m.data(), p.data(), rows, cols, r, b.data());
  ASSERT_TRUE(same(a, b)) << "panel_mtp rows=" << rows << " cols=" << cols
                          << " r=" << r << " fill=" << fill;
  a.assign(rows * cols, 1.0f);
  b.assign(rows * cols, 2.0f);
  sc.panel_pqt(p.data(), q.data(), rows, cols, r, a.data());
  vx.panel_pqt(p.data(), q.data(), rows, cols, r, b.data());
  ASSERT_TRUE(same(a, b)) << "panel_pqt rows=" << rows << " cols=" << cols
                          << " r=" << r << " fill=" << fill;
}

TEST(Kernels, PanelsCrossBackendRaggedShapesAndSpecials) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(99);
  for (std::size_t r : {1u, 2u, 3u, 4u, 8u}) {
    for (std::size_t rows : {1u, 2u, 3u, 7u, 8u, 9u, 16u, 17u, 33u}) {
      for (std::size_t cols : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 17u, 27u, 33u}) {
        for (int fill = 0; fill < 3; ++fill) {
          expect_panels_identical(rows, cols, r, fill, rng);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  // Wide enough to cross panel_pqt's 512-column Q^T blocks, with a
  // ragged last block.
  for (int fill = 0; fill < 3; ++fill) {
    expect_panels_identical(11, 1029, 4, fill, rng);
    if (HasFatalFailure()) return;
  }
}

TEST(Kernels, PanelSumsOfNegativeZeroTermsArePositiveZero) {
  // Every term is nonzero * nonzero underflowing to -0.0: nothing is
  // skipped, and the fold's +0.0f start makes each sum +0.0 — a backend
  // that seeds its accumulator with the first product would read -0.0.
  const std::size_t rows = 9, cols = 13, r = 4;
  const std::vector<float> neg(std::max(rows, cols) * cols, -1e-30f);
  const std::vector<float> pos(std::max(rows, cols) * r, 1e-30f);
  std::vector<const kernels::Backend*> backends{&kernels::scalar()};
  if (have_avx2()) backends.push_back(&kernels::avx2());
  for (const auto* b : backends) {
    std::vector<float> out(rows * cols, 1.0f);
    b->panel_mq(neg.data(), pos.data(), rows, cols, r, out.data());
    for (std::size_t i = 0; i < rows * r; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]), 0u) << b->name << i;
    }
    out.assign(rows * cols, 1.0f);
    b->panel_mtp(neg.data(), pos.data(), rows, cols, r, out.data());
    for (std::size_t i = 0; i < cols * r; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]), 0u) << b->name << i;
    }
    out.assign(rows * cols, 1.0f);
    b->panel_pqt(neg.data(), pos.data(), rows, cols, r, out.data());
    for (std::size_t i = 0; i < rows * cols; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]), 0u) << b->name << i;
    }
  }
}

TEST(Kernels, PanelsFollowThePinnedFold) {
  // The scalar panels against the contract's fold written out per
  // element: ascending index, from +0.0f, skipping a == 0 — so 0 * Inf
  // and -0.0 * NaN never enter a sum, and an all-skipped sum is +0.0.
  Rng rng(100);
  const std::size_t rows = 9, cols = 13, r = 4;
  std::vector<float> m(rows * cols), p(rows * r), q(cols * r);
  fill_panel_operand(m, 1, rng);
  fill_panel_operand(p, 1, rng);
  fill_panel_operand(q, 1, rng);
  std::fill(m.begin() + 2 * cols, m.begin() + 3 * cols, -0.0f);  // row 2
  const auto fold = [](std::size_t n, auto a, auto b) {
    float acc = 0.0f;
    for (std::size_t k = 0; k < n; ++k) {
      if (a(k) == 0.0f) continue;
      acc = acc + a(k) * b(k);
    }
    return acc;
  };
  const auto& sc = kernels::scalar();
  std::vector<float> out(rows * r);
  sc.panel_mq(m.data(), q.data(), rows, cols, r, out.data());
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < r; ++j) {
      const float ref = fold(
          cols, [&](std::size_t k) { return m[i * cols + k]; },
          [&](std::size_t k) { return q[k * r + j]; });
      ASSERT_TRUE(same_or_both_nan(out[i * r + j], ref)) << i << "," << j;
    }
  }
  for (std::size_t j = 0; j < r; ++j) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[2 * r + j]), 0u);  // +0.0
  }
  out.assign(cols * r, 0.0f);
  sc.panel_mtp(m.data(), p.data(), rows, cols, r, out.data());
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t j = 0; j < r; ++j) {
      const float ref = fold(
          rows, [&](std::size_t i) { return m[i * cols + c]; },
          [&](std::size_t i) { return p[i * r + j]; });
      ASSERT_TRUE(same_or_both_nan(out[c * r + j], ref)) << c << "," << j;
    }
  }
  out.assign(rows * cols, 0.0f);
  sc.panel_pqt(p.data(), q.data(), rows, cols, r, out.data());
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t c = 0; c < cols; ++c) {
      const float ref = fold(
          r, [&](std::size_t k) { return p[i * r + k]; },
          [&](std::size_t k) { return q[c * r + k]; });
      ASSERT_TRUE(same_or_both_nan(out[i * cols + c], ref)) << i << "," << c;
    }
  }
}

/// The sequential fold min_max is contractually pinned to.
void min_max_reference(const std::vector<float>& x, float* lo, float* hi) {
  float mn = x[0], mx = x[0];
  for (std::size_t i = 1; i < x.size(); ++i) {
    mn = std::min(mn, x[i]);
    mx = std::max(mx, x[i]);
  }
  *lo = mn;
  *hi = mx;
}

TEST(Kernels, MinMaxCrossBackendIncludingNanAndSignedZero) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(92);
  for (std::size_t n : {1u, 2u, 9u, 16u, 63u, 64u, 1031u}) {
    for (int variant = 0; variant < 4; ++variant) {
      std::vector<float> x(n);
      for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
      if (variant == 1) x[n / 2] = std::numeric_limits<float>::quiet_NaN();
      if (variant == 2) x[0] = std::numeric_limits<float>::quiet_NaN();
      if (variant == 3) {
        // Mixed-sign zeros at fold-order-sensitive spots: the result's
        // zero sign must match the sequential fold exactly.
        for (auto& v : x) v = 0.0f;
        if (n > 1) x[1] = -0.0f;
        if (n > 8) x[8] = -0.0f;
      }
      float ref_lo, ref_hi, s_lo, s_hi, v_lo, v_hi;
      min_max_reference(x, &ref_lo, &ref_hi);
      kernels::scalar().min_max(x.data(), n, &s_lo, &s_hi);
      kernels::avx2().min_max(x.data(), n, &v_lo, &v_hi);
      EXPECT_EQ(std::memcmp(&s_lo, &ref_lo, sizeof(float)), 0);
      EXPECT_EQ(std::memcmp(&s_hi, &ref_hi, sizeof(float)), 0);
      EXPECT_EQ(std::memcmp(&v_lo, &s_lo, sizeof(float)), 0);
      EXPECT_EQ(std::memcmp(&v_hi, &s_hi, sizeof(float)), 0);
    }
  }
}

/// Legacy three-pass THC level encode: stochastic levels, centered lanes,
/// saturating clamp, offset-binary packing. The fused kernel must emit
/// identical bytes.
ByteBuffer thc_encode_reference(std::span<const float> x,
                                std::span<const float> u, float lo, float hi,
                                unsigned q, unsigned b) {
  std::vector<std::int32_t> lanes(x.size());
  const std::int32_t offset = 1 << (q - 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    lanes[i] =
        static_cast<std::int32_t>(stochastic_level(x[i], lo, hi, q, u[i])) -
        offset;
  }
  sat_clamp_lanes(lanes, b);
  return pack_signed_lanes(lanes, b);
}

/// Lane counts at width b: whole vectors of 8 lanes and runt tails of
/// every byte-aligned length below 8.
std::vector<std::size_t> level_lengths(unsigned b) {
  const std::size_t byte = 8 / b;  // lanes per byte
  std::vector<std::size_t> n = {8, 16, 120, 1024};
  for (std::size_t k = byte; k < 8; k += byte) {
    n.push_back(k);
    n.push_back(1024 + k);
  }
  return n;
}

TEST(Kernels, ThcEncodeLanesMatchesLegacyComposition) {
  Rng rng(23);
  for (const auto [q, b] : std::vector<std::pair<unsigned, unsigned>>{
           {2, 2}, {4, 4}, {8, 8}, {2, 4}, {4, 8}, {2, 8}}) {
    for (std::size_t n : level_lengths(b)) {
      ASSERT_EQ(n * b % 8, 0u);
      std::vector<float> x(n), u(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = static_cast<float>(rng.next_gaussian());
        u[i] = rng.next_float();
      }
      float lo = x[0], hi = x[0];
      for (float v : x) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      for (const auto [rlo, rhi] :
           std::vector<std::pair<float, float>>{{lo, hi}, {lo, lo}}) {
        const ByteBuffer ref =
            thc_encode_reference(x, u, rlo, rhi, q, b);
        ByteBuffer got(ref.size());
        kernels::scalar().thc_encode_lanes(
            x.data(), u.data(), n, rlo, rhi, q, b,
            reinterpret_cast<std::uint8_t*>(got.data()));
        ASSERT_EQ(got, ref) << "scalar q=" << q << " b=" << b << " n=" << n;
        if (have_avx2()) {
          ByteBuffer got2(ref.size());
          kernels::avx2().thc_encode_lanes(
              x.data(), u.data(), n, rlo, rhi, q, b,
              reinterpret_cast<std::uint8_t*>(got2.data()));
          ASSERT_EQ(got2, ref) << "avx2 q=" << q << " b=" << b << " n=" << n;
        }
      }
    }
  }
}

TEST(Kernels, ThcDecodeLanesMatchesLegacyComposition) {
  Rng rng(29);
  for (const auto [q, b] : std::vector<std::pair<unsigned, unsigned>>{
           {2, 2}, {4, 4}, {8, 8}, {2, 4}, {4, 8}}) {
    for (std::size_t n : level_lengths(b)) {
      for (unsigned workers : {1u, 2u, 8u}) {
        ByteBuffer wire(n * b / 8);
        for (auto& byte : wire) {
          byte = static_cast<std::byte>(rng.next_u64() & 0xFF);
        }
        const float lo = -0.75f, hi = 1.25f;
        const std::int32_t offset = 1 << (q - 1);
        const auto sums = unpack_signed_lanes(wire, n, b);
        std::vector<float> ref(n);
        for (std::size_t i = 0; i < n; ++i) {
          const std::int64_t level_sum =
              static_cast<std::int64_t>(sums[i]) +
              static_cast<std::int64_t>(workers) * offset;
          ref[i] =
              dequantize_level_sum(level_sum, workers, {lo, hi}, q);
        }
        std::vector<float> got(n);
        kernels::scalar().thc_decode_lanes(
            reinterpret_cast<const std::uint8_t*>(wire.data()), n, lo, hi,
            q, b, workers, got.data());
        ASSERT_EQ(
            std::memcmp(ref.data(), got.data(), n * sizeof(float)), 0)
            << "scalar q=" << q << " b=" << b;
        // Degenerate range: every coordinate decodes to lo * workers.
        std::vector<float> degen(n);
        kernels::scalar().thc_decode_lanes(
            reinterpret_cast<const std::uint8_t*>(wire.data()), n, lo, lo,
            q, b, workers, degen.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(degen[i], lo * static_cast<float>(workers));
        }
        if (have_avx2()) {
          std::vector<float> got2(n);
          kernels::avx2().thc_decode_lanes(
              reinterpret_cast<const std::uint8_t*>(wire.data()), n, lo,
              hi, q, b, workers, got2.data());
          ASSERT_EQ(
              std::memcmp(ref.data(), got2.data(), n * sizeof(float)), 0)
              << "avx2 q=" << q << " b=" << b;
        }
      }
    }
  }
}

/// The fp16 sum fold's defining expression (kernels.h).
std::uint16_t fp16_sum_reference(std::uint16_t a, std::uint16_t b) {
  return float_to_half_bits(half_bits_to_float(a) + half_bits_to_float(b));
}

/// Addends for the fp16 fold: NaN payloads (quiet and signaling, both
/// signs), +-Inf, +-0, denormals, the largest finite values, RNE tie
/// makers against the exhaustive accumulator, and random patterns.
std::vector<std::uint16_t> fp16_sum_addends() {
  std::vector<std::uint16_t> v = {
      0x7E00, 0x7E01, 0xFE00, 0x7FFF,  // quiet NaNs
      0x7C01, 0x7D55, 0xFC01,          // signaling NaNs
      0x7C00, 0xFC00,                  // +-Inf
      0x0000, 0x8000,                  // +-0
      0x0001, 0x03FF, 0x8001, 0x8200,  // denormals
      0x0400, 0x8400,                  // smallest normals
      0x7BFF, 0xFBFF,                  // +-65504
      0x3C00, 0xBC00, 0x1000, 0x1400,  // 1, -1, 2^-11, 2^-10
      0x6800, 0x6801, 0x3555,          // 2048, 2050, ~1/3
  };
  Rng rng(95);
  for (int i = 0; i < 38; ++i) {
    v.push_back(static_cast<std::uint16_t>(rng.next_u64()));
  }
  return v;
}

TEST(Kernels, Fp16SumExhaustiveAccumulatorCrossBackend) {
  // Every accumulator bit pattern meets every sampled addend once.
  const auto addends = fp16_sum_addends();
  const std::size_t n = 1u << 16;
  std::vector<std::uint16_t> in(n), ref(n), got(n);
  for (std::size_t k = 0; k < addends.size(); ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      ref[i] = static_cast<std::uint16_t>(i);
      in[i] = addends[(i + k) % addends.size()];
    }
    got = ref;
    kernels::scalar().fp16_sum(ref.data(), in.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ref[i], fp16_sum_reference(static_cast<std::uint16_t>(i),
                                           in[i]))
          << "acc=" << i << " in=" << in[i];
    }
    if (!have_avx2()) continue;
    kernels::avx2().fp16_sum(got.data(), in.data(), n);
    ASSERT_EQ(ref, got) << "rotation " << k;
  }
}

TEST(Kernels, Fp16SumSignedZeroOverflowAndTies) {
  const std::pair<std::array<std::uint16_t, 2>, std::uint16_t> cases[] = {
      {{0x8000, 0x8000}, 0x8000},  // -0 + -0 = -0
      {{0x8000, 0x0000}, 0x0000},  // -0 + +0 = +0 under RNE
      {{0x7BFF, 0x7BFF}, 0x7C00},  // 65504 + 65504 overflows to +Inf
      {{0xFBFF, 0xFBFF}, 0xFC00},  // and to -Inf
      {{0x6800, 0x3C00}, 0x6800},  // 2048 + 1: tie, rounds to even 2048
      {{0x6801, 0x3C00}, 0x6802},  // 2050 + 1: tie, rounds to even 2052
      {{0x0001, 0x0001}, 0x0002},  // denormals add exactly
  };
  for (const auto* backend : {&kernels::scalar(), &kernels::avx2()}) {
    if (backend != &kernels::scalar() && !have_avx2()) continue;
    // Pad to a full 8-lane group so the vector path runs, not the tail.
    for (const auto& [operands, expected] : cases) {
      std::vector<std::uint16_t> acc(8, operands[0]), in(8, operands[1]);
      backend->fp16_sum(acc.data(), in.data(), acc.size());
      for (std::uint16_t h : acc) {
        EXPECT_EQ(h, expected) << backend->name << " " << operands[0]
                               << " + " << operands[1];
      }
    }
  }
}

TEST(Kernels, Fp16SumRuntTailsCrossBackend) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  const auto addends = fp16_sum_addends();
  Rng rng(96);
  std::vector<std::size_t> lengths(18);
  for (std::size_t n = 0; n < lengths.size(); ++n) lengths[n] = n;
  lengths.push_back(1000 + 3);
  for (std::size_t n : lengths) {
    // One guard element past n must come back untouched.
    std::vector<std::uint16_t> acc(n + 1), in(n + 1);
    for (std::size_t i = 0; i <= n; ++i) {
      acc[i] = static_cast<std::uint16_t>(rng.next_u64());
      in[i] = addends[rng.next_u64() % addends.size()];
    }
    auto a = acc, b = acc;
    kernels::scalar().fp16_sum(a.data(), in.data(), n);
    kernels::avx2().fp16_sum(b.data(), in.data(), n);
    ASSERT_EQ(a, b) << "n=" << n;
    ASSERT_EQ(a[n], acc[n]) << "n=" << n;
  }
}

/// The legacy packed Sat fold the sat_add_packed kernel fuses:
/// unpack_signed_lanes -> sat_add_lanes -> pack_signed_lanes.
ByteBuffer sat_add_packed_reference(const ByteBuffer& acc,
                                    const ByteBuffer& in, unsigned b,
                                    SatStats* stats) {
  const std::size_t lanes = acc.size() * 8 / b;
  auto x = unpack_signed_lanes(acc, lanes, b);
  const auto y = unpack_signed_lanes(in, lanes, b);
  sat_add_lanes(x, y, b, stats);
  return pack_signed_lanes(x, b);
}

/// Runs one backend's sat_add_packed on a copy of acc; returns the bytes.
ByteBuffer run_sat_add_packed(const Backend& backend, ByteBuffer acc,
                              const ByteBuffer& in, unsigned b,
                              std::uint64_t* clips) {
  *clips = backend.sat_add_packed(
      reinterpret_cast<std::uint8_t*>(acc.data()),
      reinterpret_cast<const std::uint8_t*>(in.data()), acc.size(), b);
  return acc;
}

TEST(Kernels, SatAddPackedAllBytePairsMatchLegacyComposition) {
  // Every (acc byte, in byte) pair: all lane combinations at every lane
  // position, for every lane width.
  ByteBuffer acc(1u << 16), in(1u << 16);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] = static_cast<std::byte>(i & 0xFF);
    in[i] = static_cast<std::byte>(i >> 8);
  }
  for (unsigned b : {2u, 4u, 8u}) {
    SatStats ref_stats;
    const ByteBuffer ref = sat_add_packed_reference(acc, in, b, &ref_stats);
    ASSERT_EQ(ref_stats.additions, acc.size() * 8 / b);
    ASSERT_GT(ref_stats.clips, 0u);
    std::uint64_t clips = 0;
    EXPECT_EQ(run_sat_add_packed(kernels::scalar(), acc, in, b, &clips), ref)
        << "scalar b=" << b;
    EXPECT_EQ(clips, ref_stats.clips) << "scalar b=" << b;
    if (have_avx2()) {
      EXPECT_EQ(run_sat_add_packed(kernels::avx2(), acc, in, b, &clips), ref)
          << "avx2 b=" << b;
      EXPECT_EQ(clips, ref_stats.clips) << "avx2 b=" << b;
    }
    // The ReduceOp reports the same additions and clips on each backend.
    for (const char* name : {"scalar", "avx2"}) {
      if (std::string(name) == "avx2" && !have_avx2()) continue;
      BackendGuard guard(name);
      SatStats stats;
      ByteBuffer folded = acc;
      comm::make_sat_int(b, &stats)->accumulate(folded, in);
      EXPECT_EQ(folded, ref) << name << " b=" << b;
      EXPECT_EQ(stats.additions, ref_stats.additions) << name << " b=" << b;
      EXPECT_EQ(stats.clips, ref_stats.clips) << name << " b=" << b;
    }
  }
}

TEST(Kernels, SatAddPackedRuntLengthsCrossBackend) {
  Rng rng(97);
  for (unsigned b : {2u, 4u, 8u}) {
    for (std::size_t n : {0u, 1u, 7u, 31u, 33u, 63u, 100u, 257u, 1000u}) {
      // One guard byte past n must come back untouched.
      ByteBuffer acc(n + 1), in(n + 1);
      for (std::size_t i = 0; i <= n; ++i) {
        acc[i] = static_cast<std::byte>(rng.next_u64());
        in[i] = static_cast<std::byte>(rng.next_u64());
      }
      const ByteBuffer acc_n(acc.begin(), acc.begin() + n);
      const ByteBuffer in_n(in.begin(), in.begin() + n);
      SatStats ref_stats;
      const ByteBuffer ref =
          sat_add_packed_reference(acc_n, in_n, b, &ref_stats);
      for (const auto* backend : {&kernels::scalar(), &kernels::avx2()}) {
        if (backend != &kernels::scalar() && !have_avx2()) continue;
        ByteBuffer got = acc;
        const std::uint64_t clips = backend->sat_add_packed(
            reinterpret_cast<std::uint8_t*>(got.data()),
            reinterpret_cast<const std::uint8_t*>(in.data()), n, b);
        EXPECT_EQ(ByteBuffer(got.begin(), got.begin() + n), ref)
            << backend->name << " b=" << b << " n=" << n;
        EXPECT_EQ(got[n], acc[n]) << backend->name << " b=" << b;
        EXPECT_EQ(clips, ref_stats.clips)
            << backend->name << " b=" << b << " n=" << n;
      }
    }
  }
}

TEST(Kernels, TopKThresholdSelectMatchesReferenceOnTies) {
  Rng rng(31);
  // Tie-heavy adversarial inputs: values drawn from a tiny set, so the
  // k-th magnitude has many duplicates and the lowest-index tie-break
  // rule decides the selection.
  const float palette[] = {0.0f, 1.0f, -1.0f, 2.0f, -2.0f, 0.5f};
  for (std::size_t d : {1u, 2u, 17u, 64u, 500u}) {
    std::vector<float> x(d);
    for (auto& v : x) v = palette[rng.next_u64() % 6];
    for (std::size_t k :
         {std::size_t{0}, std::size_t{1}, d / 2, d - 1, d, d + 3}) {
      EXPECT_EQ(top_k_indices(x, k), top_k_indices_reference(x, k))
          << "d=" << d << " k=" << k;
    }
  }
  // All-equal magnitudes: pure index tie-break.
  std::vector<float> flat(100, -3.0f);
  EXPECT_EQ(top_k_indices(flat, 10), top_k_indices_reference(flat, 10));
  // Mixed signs with equal magnitude.
  std::vector<float> pm(64);
  for (std::size_t i = 0; i < pm.size(); ++i) {
    pm[i] = (i % 2 != 0) ? 1.5f : -1.5f;
  }
  EXPECT_EQ(top_k_indices(pm, 7), top_k_indices_reference(pm, 7));
  // Radix-bucket collisions: distinct magnitudes sharing their top 16 bit
  // pattern (only low mantissa bits differ), so the histogram select must
  // rank within one crowded bucket to find the exact threshold.
  std::vector<float> crowded(256);
  for (std::size_t i = 0; i < crowded.size(); ++i) {
    const std::uint32_t bits =
        0x3FC00000u | static_cast<std::uint32_t>(rng.next_u64() & 0xFFFFu);
    crowded[i] = std::bit_cast<float>(bits) * ((i % 3 != 0) ? 1.0f : -1.0f);
  }
  for (std::size_t k : {std::size_t{1}, std::size_t{100}, std::size_t{255}}) {
    EXPECT_EQ(top_k_indices(crowded, k), top_k_indices_reference(crowded, k))
        << "crowded k=" << k;
  }
}

/// Lengths for TopK's select and scatter kernels: the runt tails 0-17,
/// 1003 and 70001, and one long enough for the AVX2 key histogram to
/// split into its interleaved sub-histograms.
std::vector<std::size_t> select_lengths() {
  std::vector<std::size_t> n;
  for (std::size_t i = 0; i <= 17; ++i) n.push_back(i);
  n.push_back(1003);
  n.push_back(70001);
  n.push_back(2 * kernels::kKeyHistSlots + 5);
  return n;
}

/// TopK select inputs. kSpecial: gaussian with every special_floats()
/// value sprinkled in (+-0, denormals, +-Inf, NaN payloads); kGrid:
/// gaussian snapped to a 1/4 grid, so the threshold bucket is all ties;
/// kEqual: one value everywhere (every count in one bucket).
enum class SelectFill { kSpecial, kGrid, kEqual };

std::vector<float> select_input(std::size_t n, SelectFill fill, Rng& rng) {
  const auto specials = special_floats();
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto g = static_cast<float>(rng.next_gaussian());
    switch (fill) {
      case SelectFill::kSpecial:
        x[i] = i % 7 == 3 ? specials[rng.next_below(specials.size())] : g;
        break;
      case SelectFill::kGrid: x[i] = std::round(g * 4.0f) / 4.0f; break;
      case SelectFill::kEqual: x[i] = -1.25f; break;
    }
  }
  return x;
}

/// The key histogram by its definition.
std::vector<std::uint32_t> key_hist_reference(const float* x, std::size_t n) {
  std::vector<std::uint32_t> hist(kernels::kKeyBuckets);
  for (std::size_t i = 0; i < n; ++i) ++hist[kernels::magnitude_key(x[i])];
  return hist;
}

TEST(Kernels, KeyHistAndFusedAddCrossBackend) {
  Rng rng(41);
  constexpr std::uint32_t kGuard = 0xABCD1234u;
  for (const auto fill :
       {SelectFill::kSpecial, SelectFill::kGrid, SelectFill::kEqual}) {
    for (std::size_t n : select_lengths()) {
      const auto a = select_input(n, fill, rng);
      // b is finite (or zero, to keep kEqual's ties), so a NaN in the sum
      // comes from a alone and its payload is a's on every backend.
      std::vector<float> b(n, 0.0f);
      if (fill != SelectFill::kEqual) {
        for (auto& v : b) v = static_cast<float>(rng.next_gaussian());
      }
      // The add kernel's sum, with a guard element past n.
      std::vector<float> sum(n + 1, 7.0f);
      kernels::scalar().add(a.data(), b.data(), n, sum.data());
      const auto want = key_hist_reference(sum.data(), n);
      for (const Backend* backend : backends()) {
        const auto where = [&] {
          return std::string(backend->name) + " n=" + std::to_string(n) +
                 " fill=" + std::to_string(static_cast<int>(fill));
        };
        // The histogram buffer's guard sits past the working space.
        std::vector<std::uint32_t> hist(kernels::kKeyHistSlots + 1, kGuard);
        backend->key_hist(sum.data(), n, hist.data());
        ASSERT_TRUE(std::equal(want.begin(), want.end(), hist.begin()))
            << where();
        ASSERT_EQ(hist.back(), kGuard) << where();

        std::fill(hist.begin(), hist.end(), kGuard);
        std::vector<float> out(n + 1, 7.0f);
        backend->add_key_hist(a.data(), b.data(), n, out.data(), hist.data());
        ASSERT_TRUE(same_floats(out.data(), sum.data(), n + 1)) << where();
        ASSERT_TRUE(std::equal(want.begin(), want.end(), hist.begin()))
            << where();
        ASSERT_EQ(hist.back(), kGuard) << where();

        // out == a: the compensate pass writes y over the gradient copy.
        auto in_place = a;
        backend->add_key_hist(in_place.data(), b.data(), n, in_place.data(),
                              hist.data());
        ASSERT_TRUE(same_floats(in_place.data(), sum.data(), n)) << where();
        ASSERT_TRUE(std::equal(want.begin(), want.end(), hist.begin()))
            << where();
      }
    }
  }
}

TEST(Kernels, CollectKeyGeCrossBackend) {
  Rng rng(43);
  constexpr std::uint32_t kIdxGuard = 0xDEADBEEFu;
  constexpr float kMagGuard = 9.0f;
  for (const auto fill :
       {SelectFill::kSpecial, SelectFill::kGrid, SelectFill::kEqual}) {
    for (std::size_t n : select_lengths()) {
      const auto x = select_input(n, fill, rng);
      // Every lane, none but NaN/Inf, the top bucket, and data-drawn ones.
      std::vector<std::uint32_t> buckets{
          0u, kernels::magnitude_key(1.0f),
          kernels::magnitude_key(std::numeric_limits<float>::infinity()),
          static_cast<std::uint32_t>(kernels::kKeyBuckets - 1)};
      if (n > 0) buckets.push_back(kernels::magnitude_key(x[n / 2]));
      for (const std::uint32_t bucket : buckets) {
        std::vector<std::uint32_t> want_idx;
        std::vector<float> want_mag;
        for (std::size_t i = 0; i < n; ++i) {
          if (kernels::magnitude_key(x[i]) >= bucket) {
            want_idx.push_back(static_cast<std::uint32_t>(i));
            want_mag.push_back(std::fabs(x[i]));
          }
        }
        for (const Backend* backend : backends()) {
          std::vector<std::uint32_t> idx(n + 1, kIdxGuard);
          std::vector<float> mag(n + 1, kMagGuard);
          const std::size_t count = backend->collect_key_ge(
              x.data(), n, bucket, idx.data(), mag.data());
          ASSERT_EQ(count, want_idx.size())
              << backend->name << " n=" << n << " bucket=" << bucket;
          ASSERT_TRUE(std::equal(want_idx.begin(), want_idx.end(),
                                 idx.begin()))
              << backend->name << " n=" << n << " bucket=" << bucket;
          ASSERT_TRUE(same_floats(mag.data(), want_mag.data(), count))
              << backend->name << " n=" << n << " bucket=" << bucket;
          ASSERT_EQ(idx[n], kIdxGuard) << backend->name << " n=" << n;
          ASSERT_EQ(std::bit_cast<std::uint32_t>(mag[n]),
                    std::bit_cast<std::uint32_t>(kMagGuard))
              << backend->name << " n=" << n;
        }
      }
    }
  }
}

TEST(Kernels, AscendingPrefixCrossBackend) {
  Rng rng(47);
  const auto reference = [](const std::vector<std::uint32_t>& idx,
                            std::size_t d) {
    for (std::size_t j = 0; j < idx.size(); ++j) {
      if (idx[j] >= d || (j > 0 && idx[j] <= idx[j - 1])) return j;
    }
    return idx.size();
  };
  for (std::size_t n : select_lengths()) {
    std::vector<std::uint32_t> good(n);
    std::uint32_t at = 0;
    for (auto& i : good) {
      i = at;
      at += 1 + static_cast<std::uint32_t>(rng.next_below(3));
    }
    const std::size_t d = n > 0 ? std::size_t{good.back()} + 1 : 1;
    std::vector<std::pair<std::vector<std::uint32_t>, std::size_t>> cases{
        {good, d}, {good, d - 1}, {good, 0},
        {good, std::size_t{1} << 40}};  // a d past the index type
    // Break the order or the range at the first, a middle and the last
    // entry, one way at a time.
    for (const std::size_t p : {std::size_t{0}, n / 2, n - 1}) {
      if (n == 0) break;
      auto dup = good;
      dup[p] = p > 0 ? dup[p - 1] : dup[p];
      cases.emplace_back(dup, d);
      auto down = good;
      down[p] = p > 0 ? down[p - 1] - (down[p - 1] > 0 ? 1u : 0u) : 0u;
      cases.emplace_back(down, d);
      auto out = good;
      out[p] = static_cast<std::uint32_t>(d) + (p % 2 == 0 ? 0u : 0x7FFFu);
      cases.emplace_back(out, d);
      auto top = good;
      top[p] = 0xFFFFFFFFu;
      cases.emplace_back(top, d);
    }
    for (const auto& [idx, dim] : cases) {
      const std::size_t want = reference(idx, dim);
      for (const Backend* backend : backends()) {
        EXPECT_EQ(backend->ascending_prefix(idx.data(), idx.size(), dim),
                  want)
            << backend->name << " n=" << n << " d=" << dim;
      }
    }
  }
}

TEST(Kernels, ScatterAddFp16CrossBackend) {
  Rng rng(53);
  // Every fp16 class: +-0, denormals, normals, +-Inf and NaN payloads.
  const std::uint16_t special_halves[] = {0x0000, 0x8000, 0x0001, 0x83FF,
                                          0x3C00, 0xBC00, 0x7BFF, 0x7C00,
                                          0xFC00, 0x7E00, 0x7C01, 0xFE37};
  for (std::size_t n : select_lengths()) {
    // A small d makes repeated indices common.
    const std::size_t d = 64 + n / 2;
    std::vector<std::uint32_t> idx(n);
    std::vector<std::uint16_t> vals(n);
    for (std::size_t j = 0; j < n; ++j) {
      idx[j] = static_cast<std::uint32_t>(rng.next_below(d));
      vals[j] = j % 5 == 2
                    ? special_halves[rng.next_below(std::size(special_halves))]
                    : float_to_half_bits(
                          static_cast<float>(rng.next_gaussian()));
    }
    std::vector<float> init(d + 1);  // one guard element past d
    for (auto& v : init) v = static_cast<float>(rng.next_gaussian());
    std::vector<std::size_t> stops{n};  // no bad index
    if (n > 0) {
      for (const std::size_t p : {std::size_t{0}, n / 2, n - 1}) {
        stops.push_back(p);
      }
    }
    for (const std::size_t stop : stops) {
      auto bad = idx;
      if (stop < n) {
        bad[stop] = stop % 2 == 0 ? static_cast<std::uint32_t>(d)
                                  : 0xFFFFFFFFu;
      }
      // The sequential loop the kernel is defined by.
      auto want = init;
      for (std::size_t j = 0; j < stop; ++j) {
        want[bad[j]] += half_bits_to_float(vals[j]);
      }
      for (const Backend* backend : backends()) {
        auto acc = init;
        EXPECT_EQ(backend->scatter_add_fp16(bad.data(), vals.data(), n,
                                            acc.data(), d),
                  stop)
            << backend->name << " n=" << n;
        for (std::size_t i = 0; i <= d; ++i) {
          ASSERT_TRUE(same_or_both_nan(acc[i], want[i]))
              << backend->name << " n=" << n << " stop=" << stop
              << " i=" << i;
        }
      }
    }
    for (const Backend* backend : backends()) {
      // d = 0 admits no index at all.
      EXPECT_EQ(backend->scatter_add_fp16(idx.data(), vals.data(), n,
                                          nullptr, 0),
                0u)
          << backend->name;
    }
  }
}

TEST(Kernels, TopKIndicesMatchReferenceOnBothBackends) {
  Rng rng(59);
  for (std::size_t d : {std::size_t{1}, std::size_t{2}, std::size_t{17},
                        std::size_t{1003}, std::size_t{70001},
                        2 * kernels::kKeyHistSlots + 5}) {
    for (const auto fill :
         {SelectFill::kSpecial, SelectFill::kGrid, SelectFill::kEqual}) {
      auto x = select_input(d, fill, rng);
      // The full-sort oracle needs a strict weak order: no NaN.
      for (auto& v : x) {
        if (std::isnan(v)) v = std::numeric_limits<float>::infinity();
      }
      for (const std::size_t k : {std::size_t{1}, d / 3, d - 1, d}) {
        const auto want = top_k_indices_reference(x, k);
        for (const Backend* backend : backends()) {
          BackendGuard guard(backend->name);
          EXPECT_EQ(top_k_indices(x, k), want)
              << backend->name << " d=" << d << " k=" << k;
        }
      }
    }
  }
}

TEST(Kernels, TopKIndicesWithNanAgreeAcrossBackends) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  // NaN magnitudes sit in the top key buckets but compare false, so the
  // oracle cannot rank them; the backends must still select alike,
  // including when the threshold itself is NaN and fewer than k are taken.
  Rng rng(61);
  for (std::size_t d : {std::size_t{17}, std::size_t{1003},
                        std::size_t{70001}}) {
    const auto x = select_input(d, SelectFill::kSpecial, rng);
    for (const std::size_t k : {std::size_t{1}, d / 20, d / 3, d - 1}) {
      std::vector<std::uint32_t> scalar_idx, avx2_idx;
      {
        BackendGuard guard("scalar");
        scalar_idx = top_k_indices(x, k);
      }
      {
        BackendGuard guard("avx2");
        avx2_idx = top_k_indices(x, k);
      }
      EXPECT_EQ(scalar_idx, avx2_idx) << "d=" << d << " k=" << k;
    }
  }
}

/// Drives one codec round stage by stage over the local reference
/// reductions, asserting at every stage that encode_range slices
/// concatenate to exactly the whole-payload encode.
void check_encode_range_concatenation(const std::string& spec,
                                      const ModelLayout& layout, int world,
                                      std::size_t* rangeable_stages) {
  auto codec = core::make_scheme_codec(spec, layout, world);
  const auto grads =
      core::seeded_worker_grads(layout.total_size(), world, 555, 1);
  std::vector<std::span<const float>> views;
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());
  auto session = codec->begin_round(
      std::span<const std::span<const float>>(views), 1);
  core::WireStage stage;
  std::vector<ByteBuffer> reduced;  // alive until finish(), as required
  while (session->next_stage(stage)) {
    std::vector<ByteBuffer> payloads(static_cast<std::size_t>(world));
    for (int w = 0; w < world; ++w) {
      payloads[static_cast<std::size_t>(w)] = session->encode(w);
    }
    const std::size_t granularity =
        stage.op != nullptr ? stage.op->granularity() : 1;
    if (session->supports_encode_range()) {
      ++*rangeable_stages;
      for (int w = 0; w < world; ++w) {
        const ByteBuffer& ref = payloads[static_cast<std::size_t>(w)];
        ByteBuffer got(ref.size(), std::byte{0xEE});
        // Granularity-aligned splits of varying size, including runts.
        std::size_t pos = 0;
        std::size_t piece = granularity;
        while (pos < ref.size()) {
          const std::size_t len = std::min(ref.size() - pos, piece);
          session->encode_range(
              w, pos, std::span<std::byte>(got).subspan(pos, len));
          pos += len;
          piece = granularity * (1 + (piece / granularity) % 7);
        }
        ASSERT_EQ(got, ref) << spec << " stage " << stage.name
                            << " worker " << w;
      }
    }
    if (stage.route == core::AggregationPath::kAllGather) {
      session->absorb_gathered(payloads);
    } else {
      reduced.push_back(comm::local_ring_all_reduce(payloads, *stage.op));
      session->absorb_reduced(reduced.back());
    }
  }
  std::vector<float> out(layout.total_size());
  core::RoundStats stats;
  session->finish(out, stats);
}

TEST(Kernels, EncodeRangeConcatenationEqualsEncode) {
  const auto layout = make_transformer_like_layout(4096);
  std::size_t rangeable = 0;
  check_encode_range_concatenation("fp16", layout, 4, &rangeable);
  check_encode_range_concatenation("fp32", layout, 4, &rangeable);
  check_encode_range_concatenation("thc:q=4:b=4:sat:partial", layout, 4,
                                   &rangeable);
  check_encode_range_concatenation("topkc:b=8", layout, 4, &rangeable);
  // Dense fp32/fp16 (one stage each), THC levels, TopKC values must all
  // have taken the ranged path — the test is vacuous otherwise.
  EXPECT_GE(rangeable, 4u);
}

TEST(Kernels, EncodeRangeUnsupportedByDefaultThrows) {
  const auto layout = make_transformer_like_layout(4096);
  auto codec = core::make_scheme_codec("topk:b=8", layout, 2);
  const auto grads = core::seeded_worker_grads(layout.total_size(), 2, 1, 0);
  std::vector<std::span<const float>> views;
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());
  auto session = codec->begin_round(
      std::span<const std::span<const float>>(views), 0);
  core::WireStage stage;
  ASSERT_TRUE(session->next_stage(stage));
  EXPECT_FALSE(session->supports_encode_range());
  ByteBuffer out(16);
  EXPECT_THROW(session->encode_range(0, 0, out), Error);
}

/// Runs `rounds` full aggregation rounds of one scheme from a fresh codec
/// under a forced kernel backend; returns outputs, EF residuals, and the
/// per-round payload/metadata byte counts (the wire fingerprint).
struct SchemeRun {
  std::vector<std::vector<float>> outputs;
  std::vector<std::vector<float>> ef;
  std::vector<std::size_t> payload_bytes, metadata_bytes;
};

SchemeRun run_scheme(const std::string& spec, const ModelLayout& layout,
                     int world, int rounds, const char* backend) {
  BackendGuard guard(backend);
  core::AggregationPipeline pipeline(
      core::make_scheme_codec(spec, layout, world),
      core::parse_pipeline_config(spec, layout, world));
  SchemeRun run;
  const std::size_t dim = layout.total_size();
  for (int r = 0; r < rounds; ++r) {
    const auto grads = core::seeded_worker_grads(
        dim, world, 777, static_cast<std::uint64_t>(r));
    std::vector<std::span<const float>> views;
    for (const auto& g : grads) views.emplace_back(g.data(), g.size());
    std::vector<float> out(dim);
    const core::RoundStats stats = pipeline.aggregate(
        std::span<const std::span<const float>>(views), out,
        static_cast<std::uint64_t>(r));
    run.outputs.push_back(std::move(out));
    run.payload_bytes.push_back(stats.payload_bytes);
    run.metadata_bytes.push_back(stats.metadata_bytes);
  }
  for (int w = 0; w < world; ++w) {
    const auto mem = pipeline.codec().ef_memory(w);
    run.ef.emplace_back(mem.begin(), mem.end());
  }
  return run;
}

TEST(Kernels, AllSchemesBitIdenticalAcrossBackends) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  const auto layout = make_transformer_like_layout(4096);
  // PowerSGD's panels vectorise r = 4; this layout hands them a ragged
  // layer (37 rows, 27 cols), a dense-exact bias, and a layer wide enough
  // to cross the reconstruct's column blocks.
  const ModelLayout ragged(
      {{"ragged", 37, 27}, {"ragged.bias", 37, 1}, {"wide", 12, 1030}});
  const std::pair<const char*, const ModelLayout*> cases[] = {
      {"fp16", &layout},
      {"fp32", &layout},
      {"topk:b=8", &layout},
      {"topkc:b=8", &layout},
      {"thc:q=4:b=4:sat:partial", &layout},
      {"thc:q=4:b=8:full", &layout},
      {"powersgd:r=2", &layout},
      {"powersgd:r=4", &layout},
      {"powersgd:r=4", &ragged},
      {"powersgd:r=2", &ragged},
  };
  for (const auto& [spec, case_layout] : cases) {
    const SchemeRun s = run_scheme(spec, *case_layout, 4, 3, "scalar");
    const SchemeRun a = run_scheme(spec, *case_layout, 4, 3, "avx2");
    ASSERT_EQ(s.outputs.size(), a.outputs.size()) << spec;
    for (std::size_t r = 0; r < s.outputs.size(); ++r) {
      ASSERT_EQ(std::memcmp(s.outputs[r].data(), a.outputs[r].data(),
                            s.outputs[r].size() * sizeof(float)),
                0)
          << spec << " round " << r;
    }
    EXPECT_EQ(s.payload_bytes, a.payload_bytes) << spec;
    EXPECT_EQ(s.metadata_bytes, a.metadata_bytes) << spec;
    ASSERT_EQ(s.ef.size(), a.ef.size()) << spec;
    for (std::size_t w = 0; w < s.ef.size(); ++w) {
      ASSERT_EQ(s.ef[w].size(), a.ef[w].size()) << spec;
      // Schemes without EF carry an empty residual whose data() may be
      // null, which memcmp must not see even with a zero length.
      if (s.ef[w].empty()) continue;
      ASSERT_EQ(std::memcmp(s.ef[w].data(), a.ef[w].data(),
                            s.ef[w].size() * sizeof(float)),
                0)
          << spec << " EF worker " << w;
    }
  }
}

TEST(Kernels, RuntDimensionsBitIdenticalAcrossBackends) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  // Runt payloads exercise every scalar tail in the vectorized kernels.
  for (std::size_t d : {1u, 7u, 130u}) {
    const ModelLayout layout({{"l0", d, 1}});
    for (const char* spec : {"fp16", "thc:q=4:b=4:sat:partial"}) {
      const SchemeRun s = run_scheme(spec, layout, 2, 2, "scalar");
      const SchemeRun a = run_scheme(spec, layout, 2, 2, "avx2");
      for (std::size_t r = 0; r < s.outputs.size(); ++r) {
        ASSERT_EQ(std::memcmp(s.outputs[r].data(), a.outputs[r].data(),
                              s.outputs[r].size() * sizeof(float)),
                  0)
            << spec << " d=" << d << " round " << r;
      }
      EXPECT_EQ(s.payload_bytes, a.payload_bytes) << spec << " d=" << d;
    }
    if (d >= 2) {
      const ModelLayout layout2({{"l0", d, 1}});
      const SchemeRun s = run_scheme("topk:b=8", layout2, 2, 2, "scalar");
      const SchemeRun a = run_scheme("topk:b=8", layout2, 2, 2, "avx2");
      for (std::size_t r = 0; r < s.outputs.size(); ++r) {
        ASSERT_EQ(std::memcmp(s.outputs[r].data(), a.outputs[r].data(),
                              s.outputs[r].size() * sizeof(float)),
                  0)
            << "topk d=" << d;
      }
    }
  }
}

}  // namespace
}  // namespace gcs
