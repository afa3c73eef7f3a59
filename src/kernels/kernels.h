// Single-pass encode and fold kernels with swappable backends.
//
// Every codec hot loop — fp32->fp16 conversion, stochastic quantization +
// bit packing, THC's xoshiro stream fills and sign diagonal, Hadamard
// butterflies, TopK's key-histogram select and sparse scatter-add, TopKC
// chunk scores, PowerSGD's low-rank matmul panels and its EF residual, the
// training MLP's dense forward and backward axpy — and every sum-type
// collective fold (fp32/fp16 sums, saturating packed lanes)
// funnels through this narrow interface (Vitis-streaming-kernel style:
// flat pointer + count, no allocation, no virtual dispatch inside the
// loop). A scalar reference backend defines the semantics; an AVX2
// backend is selected at runtime via CPUID when the host supports it.
//
// Bit-identity contract: every backend must produce byte-for-byte the
// output of the scalar reference for every input, including NaN payloads,
// denormals and rounding ties. That means no FMA contraction (the AVX2 TU
// is compiled with -ffp-contract=off), division instead of
// reciprocal-multiply, and hardware fp16 conversion only because F16C
// implements the same RNE semantics as numeric/half (tests/test_kernels.cpp
// cross-checks all of this exhaustively). The contract is what lets the
// wire-byte and EF-residual fingerprints stay fixed across backends, and
// lets CI run the whole tier-1 suite under GCS_FORCE_SCALAR=1. Folds are
// element-wise, so a backend changes only the per-element arithmetic,
// never the collective's fold order (DESIGN.md section 10). The kernels
// that reduce (chunk_sq_norms, the panels) pin their summation order in
// their contracts below; a backend may only change which outputs it
// computes side by side, never the order of any one output's sum.
//
// Dispatch rules:
//   1. force_backend_for_testing() override, when set (tests/benches only);
//   2. GCS_FORCE_SCALAR env var (non-empty, non-"0"): scalar;
//   3. CPUID: AVX2 + F16C present -> avx2(), else scalar().
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/rng.h"

namespace gcs::kernels {

/// A backend is a table of single-pass kernels over flat arrays. All
/// functions are thread-safe and may be called concurrently on disjoint
/// output ranges (the EncodeWorkerPool does exactly that via
/// CodecRound::encode_range).
struct Backend {
  const char* name;

  /// out[i] = float_to_half_bits(x[i]) (RNE, NaN payload preserved).
  void (*fp32_to_fp16)(const float* x, std::size_t n, std::uint16_t* out);

  /// out[i] = half_bits_to_float(x[i]).
  void (*fp16_to_fp32)(const std::uint16_t* x, std::size_t n, float* out);

  /// Fused sparse-value gather + fp16 convert:
  /// out[i] = float_to_half_bits(x[idx[i]]).
  void (*gather_fp32_to_fp16)(const float* x, const std::uint32_t* idx,
                              std::size_t n, std::uint16_t* out);

  /// One FWHT butterfly level at stride h over x[0..n): for every
  /// 2h-aligned pair (a, b) = (x[i], x[i+h]),
  ///   x[i]   = (a + b) * invsqrt2,
  ///   x[i+h] = (a - b) * invsqrt2.
  /// Requires n % (2h) == 0.
  void (*fwht_level)(float* x, std::size_t n, std::size_t h);

  /// One xoshiro256++ stream's uniforms: out[i] = Rng::next_float() of
  /// the stream's i-th draw, for i < n, where lanes.state[0] is the
  /// stream's start and lanes (see StreamLanes) cut it into segments.
  /// The scalar reference is the sequential loop from lanes.state[0]; a
  /// backend may only fill lane segments side by side, each from its own
  /// start state, so the bytes are the loop's by construction. Requires
  /// n <= kStreamLanes * lanes.seg.
  void (*uniform_fill)(const StreamLanes& lanes, std::size_t n, float* out);

  /// The RHT sign diagonal of one stream as a bit vector: bit i (bit
  /// i % 64 of bits[i / 64]) is the top bit of the stream's i-th draw,
  /// i.e. 1 exactly where Rng::next_sign() returns -1.0f. Writes
  /// ceil(n / 64) words; the bits past n in the last word are 0. Same
  /// lanes rule and requirement as uniform_fill.
  void (*sign_bits_fill)(const StreamLanes& lanes, std::size_t n,
                         std::uint64_t* bits);

  /// out[i] = x[i] * (b ? -1.0f : 1.0f) with b bit (first + i) of `bits`:
  /// the sign diagonal applied as the multiply it stands for, so a NaN
  /// x[i] comes out quieted with its own sign, as the multiply returns
  /// it. out may alias x.
  void (*sign_apply)(const float* x, const std::uint64_t* bits,
                     std::size_t first, std::size_t n, float* out);

  /// out[i] = a[i] + b[i] (the error-feedback compensate pass and the
  /// fp32 sum fold). out may alias a (out == a is the in-place fold); no
  /// other overlap is allowed.
  void (*add)(const float* a, const float* b, std::size_t n, float* out);

  /// Min and max of x[0..n), bit-identical to the sequential
  /// lo = min(lo, x[i]) / hi = max(hi, x[i]) fold seeded from x[0] —
  /// including NaN semantics: a NaN x[i] for i > 0 is transparent
  /// (std::min/max keep the first argument on an unordered compare) while
  /// a NaN x[0] poisons both results. Requires n >= 1.
  void (*min_max)(const float* x, std::size_t n, float* lo, float* hi);

  /// Fused THC levels encode: stochastic quantization of x[0..n) against
  /// [lo, hi] into q-bit levels using precomputed uniforms u[0..n)
  /// (replicating gcs::stochastic_level bit-for-bit), centering to signed
  /// lanes, offset-binary mapping and b-bit packing, in one pass.
  /// Writes exactly n*b/8 bytes at out. Requires n*b % 8 == 0,
  /// b in {2, 4, 8} and 2 <= q <= b (the centered levels then provably
  /// fit the saturation domain, so no clamp is needed).
  void (*thc_encode_lanes)(const float* x, const float* u, std::size_t n,
                           float lo, float hi, unsigned q, unsigned b,
                           std::uint8_t* out);

  /// Fused THC levels decode: unpack n b-bit offset-binary lanes, undo the
  /// centering for an n_workers sum, dequantize against [lo, hi]
  /// (replicating unpack_signed_lanes + dequantize_level_sum, the oracles
  /// in tests/oracles.h). Requires n*b % 8 == 0, b in {2, 4, 8} and
  /// n_workers * 2^{q-1} + 2^{b-1} < 2^31.
  void (*thc_decode_lanes)(const std::uint8_t* in, std::size_t n, float lo,
                           float hi, unsigned q, unsigned b,
                           unsigned n_workers, float* out);

  /// The fp16 sum fold, in place:
  ///   acc[i] = float_to_half_bits(half_bits_to_float(acc[i]) +
  ///                               half_bits_to_float(in[i])),
  /// i.e. add in fp32 and round back to fp16 (RNE) per hop. Finite
  /// overflow rounds to +-Inf; NaN payloads (signaling included) follow
  /// the scalar conversions bit for bit.
  void (*fp16_sum)(std::uint16_t* acc, const std::uint16_t* in,
                   std::size_t n);

  /// The saturating lane fold, in place, over nbytes of offset-binary,
  /// LSB-first packed b-bit lanes (the pack_signed_lanes layout), for
  /// b in {2, 4, 8}: every lane becomes Sat(acc, in), clamped into
  /// [sat_min(b), sat_max(b)] — the fusion of unpack_signed_lanes,
  /// sat_add_lanes and pack_signed_lanes. Returns the number of lanes
  /// that clipped (nbytes * 8 / b additions were performed).
  std::uint64_t (*sat_add_packed)(std::uint8_t* acc, const std::uint8_t* in,
                                  std::size_t nbytes, unsigned b);

  /// out[i] = |x[i]| (sign-bit clear; NaNs keep their payload).
  void (*abs)(const float* x, std::size_t n, float* out);

  /// #{ i : x[i] > t }.
  std::size_t (*count_gt)(const float* x, std::size_t n, float t);

  /// Appends every i with x[i] >= t to out (ascending); returns the count.
  /// out must have room for n entries.
  std::size_t (*collect_ge)(const float* x, std::size_t n, float t,
                            std::uint32_t* out);

  // TopK's select runs on magnitude keys (see magnitude_key below): one
  // histogram of the keys finds the bucket holding the k-th largest |x|,
  // and only the coordinates in or above that bucket are looked at again.
  // Counts are integers, so a backend may count into up to
  // kKeyHistSlots / kKeyBuckets interleaved sub-histograms and sum them;
  // the histogram is the same either way.

  /// out[i] = a[i] + b[i] (the error-feedback compensate pass, as add),
  /// fused with the key histogram of the sums: on return hist[c] =
  /// #{ i : magnitude_key(out[i]) == c } for every c < kKeyBuckets. hist
  /// must have room for kKeyHistSlots counts; the entries past
  /// kKeyBuckets are working space and are left unspecified. out may
  /// alias a (no other overlap).
  void (*add_key_hist)(const float* a, const float* b, std::size_t n,
                       float* out, std::uint32_t* hist);

  /// The key histogram of x alone: add_key_hist without the add.
  void (*key_hist)(const float* x, std::size_t n, std::uint32_t* hist);

  /// Collects, in ascending order, every i with magnitude_key(x[i]) >=
  /// bucket: the j-th such i goes to idx[j] and |x[i]| (as abs writes
  /// it) to mag[j]. Returns the count. idx and mag must each have room
  /// for n entries; entries past the count may be overwritten.
  std::size_t (*collect_key_ge)(const float* x, std::size_t n,
                                std::uint32_t bucket, std::uint32_t* idx,
                                float* mag);

  /// The length of the longest prefix of idx[0..n) that is strictly
  /// ascending with every entry < d: n for a well-formed sparse payload
  /// (TopK's indices), and otherwise the position of the first entry that
  /// is out of range or not above its predecessor.
  std::size_t (*ascending_prefix)(const std::uint32_t* idx, std::size_t n,
                                  std::size_t d);

  /// The checked sparse fp16 scatter-add: for j = 0, 1, ... in order,
  /// acc[idx[j]] += half_bits_to_float(vals[j]), stopping before the first
  /// j whose idx[j] >= d. Returns the number of entries applied (n when
  /// every index is in range). Repeated indices add in entry order, so the
  /// result is the sequential loop's bit for bit, NaN payloads included.
  std::size_t (*scatter_add_fp16)(const std::uint32_t* idx,
                                  const std::uint16_t* vals, std::size_t n,
                                  float* acc, std::size_t d);

  /// TopKC's chunk scores: out[c] is the squared L2 norm of
  /// x[c*chunk .. min((c+1)*chunk, n)) for every c < ceil(n / chunk),
  /// folded as acc = +0.0f; acc = acc + x[i] * x[i] in ascending i (the
  /// order is wire-visible: the scores are consensus-summed). Requires
  /// chunk >= 1.
  void (*chunk_sq_norms)(const float* x, std::size_t n, std::size_t chunk,
                         float* out);

  /// out[i] = y[i] - x[i] * s (multiply, then subtract): PowerSGD's
  /// fused error-feedback residual, memory = y - reconstruction / n.
  /// out may alias y or x.
  void (*sub_scaled)(const float* y, const float* x, float s,
                     std::size_t n, float* out);

  /// y[i] = y[i] + a * x[i] (multiply, then add): the element-wise
  /// updates of the training MLP's backward pass. y must not overlap x.
  void (*axpy)(float a, const float* x, std::size_t n, float* y);

  /// The training MLP's dense layer, z = x W^T + b over a batch: w is
  /// out x in, x is batch x in and z is batch x out, all row-major.
  /// Pinned fold: z[s*out + o] starts at b[o], then adds w[o*in + i] *
  /// x[s*in + i] in ascending i, multiply then add. A backend may only
  /// compute samples or rows side by side. z must not alias the inputs.
  void (*dense_forward)(const float* w, const float* b, const float* x,
                        std::size_t batch, std::size_t in, std::size_t out,
                        float* z);

  // PowerSGD's matmul panels. All matrices are dense row-major; m is
  // rows x cols, p is rows x r, q is cols x r. Pinned fold order: every
  // output element is the sequential sum over its contraction index in
  // ascending order, starting from +0.0f, of the products a * b (a the
  // M-side multiplicand; for panel_pqt the P-side one), skipping every
  // term whose a compares equal to 0 — so a zero or -0.0 in M never
  // meets an Inf/NaN in the other factor, and an all-skipped sum is +0.0.
  // No FMA. Outputs are fully overwritten and must not alias the inputs.

  /// P = M * Q: p[i*r + j] = sum_k m[i*cols + k] * q[k*r + j].
  void (*panel_mq)(const float* m, const float* q, std::size_t rows,
                   std::size_t cols, std::size_t r, float* p);

  /// Q = M^T * P: q[c*r + j] = sum_i m[i*cols + c] * p[i*r + j].
  void (*panel_mtp)(const float* m, const float* p, std::size_t rows,
                    std::size_t cols, std::size_t r, float* q);

  /// M_hat = P * Q^T: m_hat[i*cols + c] = sum_k p[i*r + k] * q[c*r + k].
  void (*panel_pqt)(const float* p, const float* q, std::size_t rows,
                    std::size_t cols, std::size_t r, float* m_hat);
};

/// Number of magnitude keys: keys are 15-bit (the sign bit is cleared).
inline constexpr std::size_t kKeyBuckets = std::size_t{1} << 15;

/// Counts a key histogram needs room for: kKeyBuckets per sub-histogram,
/// at most four sub-histograms.
inline constexpr std::size_t kKeyHistSlots = 4 * kKeyBuckets;

/// TopK's magnitude key of x: the top 16 bits of |x|'s bit pattern,
/// (bits(x) & 0x7fffffff) >> 16. Non-negative floats order like their bit
/// patterns, so for non-NaN a, b, |a| < |b| implies key(a) <= key(b), and
/// a key above another's means a strictly larger magnitude. Every NaN has
/// a key >= key(Inf) = 0x7f80.
inline std::uint32_t magnitude_key(float x) noexcept {
  return (std::bit_cast<std::uint32_t>(x) & 0x7FFFFFFFu) >> 16;
}

/// The scalar reference backend (always available; defines the semantics).
const Backend& scalar() noexcept;

/// The AVX2+F16C backend. Only meaningful when avx2_supported().
const Backend& avx2() noexcept;

/// True when the host CPU has AVX2 and F16C.
bool avx2_supported() noexcept;

/// The backend selected by the dispatch rules above.
const Backend& active() noexcept;

/// Name of the active backend ("scalar" or "avx2").
const char* backend_name() noexcept;

/// Test/bench hook: pin the active backend to "scalar" or "avx2", or
/// restore normal dispatch with nullptr. Throws gcs::Error for an unknown
/// name or when "avx2" is requested on a host without AVX2.
void force_backend_for_testing(const char* name);

}  // namespace gcs::kernels
