// Scalar reference backend + runtime dispatch.
//
// The scalar kernels are the semantic ground truth: they are written as
// the exact fusion of the legacy per-coordinate passes (numeric/half RNE
// conversion, gcs::stochastic_level, pack_lanes' LSB-first bit order,
// dequantize_level_sum) so that "fused" never means "different bits";
// the stream fills are the sequential Rng loop itself.
#include "kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "numeric/half.h"
#include "numeric/precision.h"
#include "quant/satint.h"
#include "telemetry/metrics.h"

namespace gcs::kernels {
namespace {

void fp32_to_fp16_scalar(const float* x, std::size_t n, std::uint16_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = float_to_half_bits(x[i]);
}

void fp16_to_fp32_scalar(const std::uint16_t* x, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = half_bits_to_float(x[i]);
}

void gather_fp32_to_fp16_scalar(const float* x, const std::uint32_t* idx,
                                std::size_t n, std::uint16_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = float_to_half_bits(x[idx[i]]);
}

constexpr float kInvSqrt2 = 0.70710678118654752440f;

void fwht_level_scalar(float* x, std::size_t n, std::size_t h) {
  for (std::size_t base = 0; base < n; base += 2 * h) {
    for (std::size_t i = base; i < base + h; ++i) {
      const float a = x[i];
      const float b = x[i + h];
      x[i] = (a + b) * kInvSqrt2;
      x[i + h] = (a - b) * kInvSqrt2;
    }
  }
}

void uniform_fill_scalar(const StreamLanes& lanes, std::size_t n,
                         float* out) {
  Rng rng = Rng::from_state(lanes.state[0]);
  for (std::size_t i = 0; i < n; ++i) out[i] = rng.next_float();
}

void sign_bits_fill_scalar(const StreamLanes& lanes, std::size_t n,
                           std::uint64_t* bits) {
  Rng rng = Rng::from_state(lanes.state[0]);
  std::fill(bits, bits + (n + 63) / 64, std::uint64_t{0});
  for (std::size_t i = 0; i < n; ++i) {
    bits[i / 64] |= (rng.next_u64() >> 63) << (i % 64);
  }
}

void sign_apply_scalar(const float* x, const std::uint64_t* bits,
                       std::size_t first, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = first + i;
    out[i] = x[i] * (((bits[k / 64] >> (k % 64)) & 1u) != 0 ? -1.0f : 1.0f);
  }
}

void add_scalar(const float* a, const float* b, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void min_max_scalar(const float* x, std::size_t n, float* lo, float* hi) {
  float mn = x[0], mx = x[0];
  for (std::size_t i = 1; i < n; ++i) {
    mn = std::min(mn, x[i]);
    mx = std::max(mx, x[i]);
  }
  *lo = mn;
  *hi = mx;
}

void thc_encode_lanes_scalar(const float* x, const float* u, std::size_t n,
                             float lo, float hi, unsigned q, unsigned b,
                             std::uint8_t* out) {
  // Centered q-bit level -> offset-binary b-bit lane is a single constant
  // add: (level - 2^{q-1}) + 2^{b-1}, always in [0, 2^b) for q <= b, so
  // the legacy sat_clamp is a provable no-op here.
  const std::uint32_t add = (1u << (b - 1)) - (1u << (q - 1));
  std::uint32_t acc = 0;
  unsigned acc_bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t raw = stochastic_level(x[i], lo, hi, q, u[i]) + add;
    acc |= raw << acc_bits;
    acc_bits += b;
    while (acc_bits >= 8) {
      *out++ = static_cast<std::uint8_t>(acc & 0xFFu);
      acc >>= 8;
      acc_bits -= 8;
    }
  }
}

void thc_decode_lanes_scalar(const std::uint8_t* in, std::size_t n, float lo,
                             float hi, unsigned q, unsigned b,
                             unsigned n_workers, float* out) {
  const float levels = static_cast<float>((1u << q) - 1u);
  const float width = hi - lo;
  const float lo_n = lo * static_cast<float>(n_workers);
  if (levels == 0.0f || width <= 0.0f) {
    for (std::size_t i = 0; i < n; ++i) out[i] = lo_n;
    return;
  }
  const float delta = width / levels;
  // raw - 2^{b-1} undoes the offset-binary; + n * 2^{q-1} undoes the
  // centering summed over n workers.
  const std::int32_t base = static_cast<std::int32_t>(n_workers) *
                                (1 << (q - 1)) -
                            (1 << (b - 1));
  const std::uint32_t mask = (1u << b) - 1u;
  std::uint32_t acc = 0;
  unsigned acc_bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (acc_bits < b) {
      acc |= static_cast<std::uint32_t>(*in++) << acc_bits;
      acc_bits += 8;
    }
    const std::int32_t level_sum = static_cast<std::int32_t>(acc & mask) + base;
    acc >>= b;
    acc_bits -= b;
    out[i] = lo_n + delta * static_cast<float>(level_sum);
  }
}

void fp16_sum_scalar(std::uint16_t* acc, const std::uint16_t* in,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] = float_to_half_bits(half_bits_to_float(acc[i]) +
                                half_bits_to_float(in[i]));
  }
}

std::uint64_t sat_add_packed_scalar(std::uint8_t* acc, const std::uint8_t* in,
                                    std::size_t nbytes, unsigned b) {
  // unpack_signed_lanes -> sat_add_lanes -> pack_signed_lanes, one byte
  // (8/b whole lanes) at a time.
  const std::int32_t offset = 1 << (b - 1);
  const std::int32_t hi = sat_max(b);
  const std::int32_t lo = sat_min(b);
  const unsigned mask = (1u << b) - 1u;
  std::uint64_t clips = 0;
  for (std::size_t i = 0; i < nbytes; ++i) {
    unsigned out = 0;
    for (unsigned shift = 0; shift < 8; shift += b) {
      const std::int32_t x =
          static_cast<std::int32_t>((acc[i] >> shift) & mask) - offset;
      const std::int32_t y =
          static_cast<std::int32_t>((in[i] >> shift) & mask) - offset;
      std::int32_t sum = x + y;
      if (sum > hi) {
        sum = hi;
        ++clips;
      } else if (sum < lo) {
        sum = lo;
        ++clips;
      }
      out |= static_cast<unsigned>(sum + offset) << shift;
    }
    acc[i] = static_cast<std::uint8_t>(out);
  }
  return clips;
}

void abs_scalar(const float* x, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::fabs(x[i]);
}

std::size_t count_gt_scalar(const float* x, std::size_t n, float t) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += x[i] > t ? 1 : 0;
  return count;
}

std::size_t collect_ge_scalar(const float* x, std::size_t n, float t,
                              std::uint32_t* out) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] >= t) out[count++] = static_cast<std::uint32_t>(i);
  }
  return count;
}

void key_hist_scalar(const float* x, std::size_t n, std::uint32_t* hist) {
  std::fill(hist, hist + kKeyBuckets, 0u);
  for (std::size_t i = 0; i < n; ++i) ++hist[magnitude_key(x[i])];
}

// The reference is the composition it fuses: the add kernel, then the
// histogram of its output.
void add_key_hist_scalar(const float* a, const float* b, std::size_t n,
                         float* out, std::uint32_t* hist) {
  add_scalar(a, b, n, out);
  key_hist_scalar(out, n, hist);
}

std::size_t collect_key_ge_scalar(const float* x, std::size_t n,
                                  std::uint32_t bucket, std::uint32_t* idx,
                                  float* mag) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (magnitude_key(x[i]) >= bucket) {
      idx[count] = static_cast<std::uint32_t>(i);
      mag[count] = std::fabs(x[i]);
      ++count;
    }
  }
  return count;
}

std::size_t ascending_prefix_scalar(const std::uint32_t* idx, std::size_t n,
                                   std::size_t d) {
  for (std::size_t j = 0; j < n; ++j) {
    if (idx[j] >= d || (j > 0 && idx[j] <= idx[j - 1])) return j;
  }
  return n;
}

std::size_t scatter_add_fp16_scalar(const std::uint32_t* idx,
                                    const std::uint16_t* vals, std::size_t n,
                                    float* acc, std::size_t d) {
  for (std::size_t j = 0; j < n; ++j) {
    if (idx[j] >= d) return j;
    acc[idx[j]] += half_bits_to_float(vals[j]);
  }
  return n;
}

void chunk_sq_norms_scalar(const float* x, std::size_t n, std::size_t chunk,
                           float* out) {
  for (std::size_t begin = 0, c = 0; begin < n; begin += chunk, ++c) {
    const std::size_t end = std::min(begin + chunk, n);
    float acc = 0.0f;  // FP32 accumulate, as a GPU reduction kernel would
    for (std::size_t i = begin; i < end; ++i) acc += x[i] * x[i];
    out[c] = acc;
  }
}

void sub_scaled_scalar(const float* y, const float* x, float s,
                       std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = y[i] - x[i] * s;
}

void axpy_scalar(float a, const float* x, std::size_t n, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void dense_forward_scalar(const float* w, const float* b, const float* x,
                          std::size_t batch, std::size_t in, std::size_t out,
                          float* z) {
  for (std::size_t s = 0; s < batch; ++s) {
    const float* xs = x + s * in;
    for (std::size_t o = 0; o < out; ++o) {
      const float* wrow = w + o * in;
      float acc = b[o];
      for (std::size_t i = 0; i < in; ++i) acc += wrow[i] * xs[i];
      z[s * out + o] = acc;
    }
  }
}

// The panels below are the pinned fold of kernels.h: the loop nests only
// choose which output elements advance together; each element still sums
// its terms in ascending contraction index from +0.0f, skipping a == 0.

void panel_mq_scalar(const float* m, const float* q, std::size_t rows,
                     std::size_t cols, std::size_t r, float* p) {
  std::fill(p, p + rows * r, 0.0f);
  // i-k-j order: streams through Q and P rows contiguously.
  for (std::size_t i = 0; i < rows; ++i) {
    float* prow = p + i * r;
    for (std::size_t k = 0; k < cols; ++k) {
      const float a = m[i * cols + k];
      if (a == 0.0f) continue;
      const float* qrow = q + k * r;
      for (std::size_t j = 0; j < r; ++j) prow[j] += a * qrow[j];
    }
  }
}

void panel_mtp_scalar(const float* m, const float* p, std::size_t rows,
                      std::size_t cols, std::size_t r, float* q) {
  std::fill(q, q + cols * r, 0.0f);
  for (std::size_t i = 0; i < rows; ++i) {
    const float* mrow = m + i * cols;
    const float* prow = p + i * r;
    for (std::size_t c = 0; c < cols; ++c) {
      const float a = mrow[c];
      if (a == 0.0f) continue;
      float* qrow = q + c * r;
      for (std::size_t j = 0; j < r; ++j) qrow[j] += a * prow[j];
    }
  }
}

void panel_pqt_scalar(const float* p, const float* q, std::size_t rows,
                      std::size_t cols, std::size_t r, float* m_hat) {
  std::fill(m_hat, m_hat + rows * cols, 0.0f);
  for (std::size_t i = 0; i < rows; ++i) {
    float* out_row = m_hat + i * cols;
    for (std::size_t k = 0; k < r; ++k) {
      const float a = p[i * r + k];
      if (a == 0.0f) continue;
      for (std::size_t c = 0; c < cols; ++c) out_row[c] += a * q[c * r + k];
    }
  }
}

constexpr Backend kScalar = {
    "scalar",
    fp32_to_fp16_scalar,
    fp16_to_fp32_scalar,
    gather_fp32_to_fp16_scalar,
    fwht_level_scalar,
    uniform_fill_scalar,
    sign_bits_fill_scalar,
    sign_apply_scalar,
    add_scalar,
    min_max_scalar,
    thc_encode_lanes_scalar,
    thc_decode_lanes_scalar,
    fp16_sum_scalar,
    sat_add_packed_scalar,
    abs_scalar,
    count_gt_scalar,
    collect_ge_scalar,
    add_key_hist_scalar,
    key_hist_scalar,
    collect_key_ge_scalar,
    ascending_prefix_scalar,
    scatter_add_fp16_scalar,
    chunk_sq_norms_scalar,
    sub_scaled_scalar,
    axpy_scalar,
    dense_forward_scalar,
    panel_mq_scalar,
    panel_mtp_scalar,
    panel_pqt_scalar,
};

const Backend& default_backend() noexcept {
  static const Backend* chosen = [] {
    const char* env = std::getenv("GCS_FORCE_SCALAR");
    if (env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0')) {
      return &scalar();
    }
    return avx2_supported() ? &avx2() : &scalar();
  }();
  return *chosen;
}

std::atomic<const Backend*> g_forced{nullptr};

}  // namespace

const Backend& scalar() noexcept { return kScalar; }

bool avx2_supported() noexcept {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

const Backend& active() noexcept {
  const Backend* forced = g_forced.load(std::memory_order_acquire);
  const Backend& chosen = forced != nullptr ? *forced : default_backend();
  // Per-backend dispatch counters. Codecs resolve the table once per
  // stage, not per coordinate, so one dead-handle branch here is cheap;
  // the handles are pinned at first dispatch after telemetry is enabled.
  static struct {
    telemetry::CounterHandle scalar_count =
        telemetry::counter("gcs_kernels_dispatch_total",
                           telemetry::label_kv("backend", "scalar"));
    telemetry::CounterHandle avx2_count =
        telemetry::counter("gcs_kernels_dispatch_total",
                           telemetry::label_kv("backend", "avx2"));
  } dispatch;
  (&chosen == &kScalar ? dispatch.scalar_count : dispatch.avx2_count).inc();
  return chosen;
}

const char* backend_name() noexcept { return active().name; }

void force_backend_for_testing(const char* name) {
  if (name == nullptr) {
    g_forced.store(nullptr, std::memory_order_release);
    return;
  }
  if (std::strcmp(name, "scalar") == 0) {
    g_forced.store(&scalar(), std::memory_order_release);
    return;
  }
  if (std::strcmp(name, "avx2") == 0) {
    if (!avx2_supported()) {
      throw Error("kernels: AVX2 backend not supported on this host");
    }
    g_forced.store(&avx2(), std::memory_order_release);
    return;
  }
  throw Error(std::string("kernels: unknown backend '") + name + "'");
}

}  // namespace gcs::kernels
