#include "core/thc_compressor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>

#include "common/bits.h"
#include "common/check.h"
#include "common/rng.h"
#include "hadamard/hadamard.h"
#include "kernels/kernels.h"
#include "quant/packing.h"
#include "quant/quantize.h"

namespace gcs::core {
namespace {

class ThcCodec;

/// Three stages: per-block range consensus as two associative reductions
/// ("range-lo" min, "range-hi" max), then the centered q-bit levels as
/// packed signed lanes under the saturating (or wide) add.
class ThcRound final : public CodecRound {
 public:
  ThcRound(ThcCodec& codec, std::span<const std::span<const float>> grads,
           std::uint64_t round);

  bool next_stage(WireStage& stage) override;
  ByteBuffer encode(int worker) override;
  void encode_into(int worker, ByteBuffer& out) override;
  bool supports_encode_range() const override;
  void encode_range(int worker, std::size_t offset,
                    std::span<std::byte> out) override;
  void absorb_reduced(const ByteBuffer& reduced) override;
  void finish(std::span<float> out, RoundStats& stats) override;

 private:
  enum Stage { kRangeLo = 0, kRangeHi = 1, kLevels = 2, kDone = 3 };

  /// The legacy multi-pass levels encode (see fused_levels_).
  ByteBuffer encode_levels_unfused(std::size_t w) const;

  ThcCodec& codec_;
  HeldWorkers held_;
  std::uint64_t round_;
  int stage_ = kRangeLo;
  // All level blocks are byte-aligned on the wire (block * b a multiple of
  // 8), which makes the single-pass fused level kernels and per-range
  // encoding applicable. When false (e.g. a tiny full-rotation transform),
  // the legacy multi-pass level path is used instead.
  bool fused_levels_;
  // Views of the codec's round scratch (ThcCodec::Scratch): the shared RHT
  // diagonal, generated once per round, and per held worker its rotated
  // gradient and stochastic rounding draws (one per padded coordinate, in
  // coordinate order — the exact Rng consumption of the legacy encode),
  // the draws precomputed when the range consensus completes so that
  // level encoding is pure and per-range calls can run concurrently.
  std::span<float> signs_;
  std::vector<std::span<float>> rotated_, u_;
  std::vector<std::vector<float>> lo_, hi_;  // per worker, per block
  std::vector<QuantRange> ranges_;
  SatStats sat_;
  std::unique_ptr<comm::ReduceOp> min_op_, max_op_, sat_op_;
  // The decoded level sums. They reuse a held worker's rotated_ buffer,
  // which every encode has finished reading once the levels are absorbed.
  std::span<float> rotated_sum_;
};

class ThcCodec final : public SchemeCodec {
 public:
  explicit ThcCodec(const ThcConfig& config) : config_(config) {
    GCS_CHECK(config_.dimension > 0);
    GCS_CHECK_MSG(config_.valid_bits(),
                  "THC: saturation requires b == q; wide mode requires "
                  "b >= q (got b="
                      << config_.b << ", q=" << config_.q << ")");
    GCS_CHECK(config_.b == 2 || config_.b == 4 || config_.b == 8);
    if (!config_.saturation) {
      // Headroom check: n centered q-bit levels must fit in b bits.
      const double need =
          config_.q + std::ceil(std::log2(config_.world_size));
      GCS_CHECK_MSG(config_.b >= need,
                    "wide mode needs b >= q + log2(n) to be overflow-free");
    }
    const std::size_t pow2 = next_pow2(config_.dimension);
    const unsigned full = full_iterations(pow2);
    switch (config_.rotation) {
      case RotationMode::kNone: iters_ = 0; break;
      case RotationMode::kFull: iters_ = full; break;
      case RotationMode::kPartial:
        iters_ = partial_iterations(pow2, config_.shared_memory_bytes);
        break;
    }
    if (config_.rotation != RotationMode::kNone) {
      rht_.emplace(config_.dimension, iters_, config_.seed);
      padded_ = rht_->padded_size();  // full: next pow2; partial: next block
    } else {
      // No transform: pad only to whole bytes of packed lanes (8 lanes
      // always byte-aligns for q in {2, 4, 8}).
      padded_ = ceil_div(config_.dimension, 8) * 8;
    }
    // Range-consensus blocks mirror the rotation structure: per 2^l'
    // block for partial rotation, one global block otherwise.
    block_ = config_.rotation == RotationMode::kPartial
                 ? (std::size_t{1} << iters_)
                 : padded_;
    n_blocks_ = ceil_div(padded_, block_);
  }

  std::string name() const override {
    std::string n = "THC b=" + std::to_string(config_.b) +
                    ",q=" + std::to_string(config_.q);
    n += config_.saturation ? " Sat" : " BL";
    n += " " + to_string(config_.rotation);
    return n;
  }
  AggregationPath path() const override {
    return AggregationPath::kAllReduce;
  }
  int world_size() const override { return config_.world_size; }
  std::size_t dimension() const override { return config_.dimension; }

  std::unique_ptr<CodecRound> begin_round(
      std::span<const std::span<const float>> grads,
      std::uint64_t round) override {
    return std::make_unique<ThcRound>(*this, grads, round);
  }

  void reset() override {}

  SchemeCodecPtr remap_workers(
      std::span<const int> survivors) const override {
    check_survivor_set(survivors, config_.world_size);
    // Stateless across rounds (the rotation is seeded per round); the
    // shrunken codec is a fresh one. Shrinking only relaxes the wide-mode
    // headroom requirement b >= q + log2(n), so construction cannot fail.
    ThcConfig shrunk = config_;
    shrunk.world_size = static_cast<int>(survivors.size());
    return std::make_unique<ThcCodec>(shrunk);
  }

  const ThcConfig& config() const noexcept { return config_; }
  std::size_t padded() const noexcept { return padded_; }
  std::size_t block() const noexcept { return block_; }
  std::size_t n_blocks() const noexcept { return n_blocks_; }
  const std::optional<RhtTransform>& rht() const noexcept { return rht_; }
  std::optional<RhtTransform>& rht() noexcept { return rht_; }

  std::span<float> block_span(std::span<float> x, std::size_t blk) const {
    const std::size_t begin = blk * block_;
    const std::size_t len = std::min(block_, padded_ - begin);
    return {x.data() + begin, len};
  }

  /// Round scratch lent to each session (see lend_scratch): not state, so
  /// remap_workers builds a codec without it.
  struct Scratch {
    std::vector<float> signs;
    std::vector<std::vector<float>> rotated, u;  // per worker, padded
  };
  Scratch& scratch() noexcept { return scratch_; }

 private:
  ThcConfig config_;
  std::size_t padded_;
  unsigned iters_ = 0;
  std::size_t block_ = 0;
  std::size_t n_blocks_ = 0;
  std::optional<RhtTransform> rht_;
  Scratch scratch_;
};

ThcRound::ThcRound(ThcCodec& codec,
                   std::span<const std::span<const float>> grads,
                   std::uint64_t round)
    : codec_(codec),
      held_(grads, codec.config().world_size, codec.config().dimension),
      round_(round) {
  const auto& config = codec_.config();
  const std::size_t d = config.dimension;
  const std::size_t padded = codec_.padded();
  const auto n = static_cast<std::size_t>(config.world_size);

  min_op_ = comm::make_fp32_min();
  max_op_ = comm::make_fp32_max();
  sat_op_ = comm::make_sat_int(config.b, &sat_);

  // padded is always a whole number of blocks, so byte alignment of one
  // block implies byte alignment of every block boundary on the wire.
  fused_levels_ = (codec_.block() * config.b) % 8 == 0;

  // Rotate each worker's gradient (shared sign diagonal, so the transform
  // commutes with summation across workers), then compute the per-block
  // ranges both consensus stages serialize from. The sign diagonal is the
  // same for every worker — generate it once per round.
  auto& scratch = codec_.scratch();
  if (codec_.rht()) {
    signs_ = lend_scratch(scratch.signs, padded);
    rht_signs(signs_, config.seed, round_);
  }
  scratch.rotated.resize(n);
  scratch.u.resize(n);
  rotated_.resize(n);
  u_.resize(n);
  lo_.resize(n);
  hi_.resize(n);
  for (std::size_t w = 0; w < n; ++w) {
    if (!held_.holds(w)) continue;
    rotated_[w] = lend_scratch(scratch.rotated[w], padded);
    if (fused_levels_) u_[w] = lend_scratch(scratch.u[w], padded);
    lo_[w].resize(codec_.n_blocks());
    hi_[w].resize(codec_.n_blocks());
    if (codec_.rht()) {
      codec_.rht()->forward(grads[w], rotated_[w], signs_);
    } else {
      std::memcpy(rotated_[w].data(), grads[w].data(), d * sizeof(float));
      std::fill(rotated_[w].begin() + static_cast<std::ptrdiff_t>(d),
                rotated_[w].end(), 0.0f);
    }
    for (std::size_t blk = 0; blk < codec_.n_blocks(); ++blk) {
      const auto range = compute_range(codec_.block_span(rotated_[w], blk));
      lo_[w][blk] = range.lo;
      hi_[w][blk] = range.hi;
    }
  }
}

bool ThcRound::next_stage(WireStage& stage) {
  if (stage_ >= kDone) return false;
  stage = WireStage{};
  stage.route = AggregationPath::kAllReduce;
  switch (stage_) {
    case kRangeLo:
      stage.name = "range-lo";
      stage.op = min_op_.get();
      stage.metadata = true;
      break;
    case kRangeHi:
      stage.name = "range-hi";
      stage.op = max_op_.get();
      stage.metadata = true;
      break;
    default:
      stage.name = "levels";
      stage.op = sat_op_.get();
      break;
  }
  return true;
}

ByteBuffer ThcRound::encode(int worker) {
  ByteBuffer buf;
  encode_into(worker, buf);
  return buf;
}

void ThcRound::encode_into(int worker, ByteBuffer& out) {
  held_.require(worker, codec_);
  require_stage(stage_ < kDone, codec_, "encode after the last stage");
  const auto w = static_cast<std::size_t>(worker);
  if (stage_ == kRangeLo || stage_ == kRangeHi) {
    const auto& range = stage_ == kRangeLo ? lo_[w] : hi_[w];
    out.resize(range.size() * sizeof(float));
    std::memcpy(out.data(), range.data(), out.size());
    return;
  }
  if (fused_levels_) {
    // Single fused pass per block: stochastic level, offset-binary lane,
    // LSB-first bit packing — one kernel call instead of three sweeps.
    out.resize(packed_bytes(codec_.padded(), codec_.config().b));
    encode_range(worker, 0, out);
    return;
  }
  out = encode_levels_unfused(w);
}

ByteBuffer ThcRound::encode_levels_unfused(std::size_t w) const {
  const auto& config = codec_.config();
  const std::size_t padded = codec_.padded();
  // Quantize against the shared ranges; centered signed lanes.
  const std::int32_t offset = 1 << (config.q - 1);
  const auto n = static_cast<std::size_t>(config.world_size);
  Rng rng(derive_seed(config.seed ^ 0x5707c457,
                      round_ * n + w));  // per-worker stochastic rounding
  std::vector<std::uint16_t> levels(padded);
  for (std::size_t blk = 0; blk < codec_.n_blocks(); ++blk) {
    auto xs = codec_.block_span(rotated_[w], blk);
    quantize_stochastic(xs, ranges_[blk], config.q, rng,
                        std::span<std::uint16_t>(levels).subspan(
                            blk * codec_.block(), xs.size()));
  }
  std::vector<std::int32_t> lanes(padded);
  for (std::size_t i = 0; i < padded; ++i) {
    lanes[i] = static_cast<std::int32_t>(levels[i]) - offset;
  }
  // Centered q-bit levels span [-2^{q-1}, 2^{q-1}-1], which fits the
  // two's-complement lane domain exactly at b == q; the clamp only
  // matters defensively.
  sat_clamp_lanes(lanes, config.b);
  return pack_signed_lanes(lanes, config.b);
}

bool ThcRound::supports_encode_range() const {
  // Only the levels payload is rangeable (the range stages are tiny
  // metadata); requires byte-aligned block boundaries.
  return stage_ == kLevels && fused_levels_;
}

void ThcRound::encode_range(int worker, std::size_t offset,
                            std::span<std::byte> out) {
  held_.require(worker, codec_);
  const auto& config = codec_.config();
  const auto w = static_cast<std::size_t>(worker);
  // stage_ is this round's: kLevels means this round's range consensus
  // completed and drew u_ (the scratch holds some earlier round's draws
  // before that).
  require_stage(stage_ == kLevels && fused_levels_, codec_,
                "encode_range needs the levels stage of a fused round, "
                "after this round's range consensus");
  const std::size_t total = packed_bytes(codec_.padded(), config.b);
  GCS_CHECK(offset + out.size() <= total);
  const unsigned lanes_per_byte = 8u / config.b;  // b in {2, 4, 8}
  const std::size_t block_bytes = codec_.block() * config.b / 8;
  const auto& backend = kernels::active();
  std::size_t byte = offset;
  const std::size_t end = offset + out.size();
  auto* dst = reinterpret_cast<std::uint8_t*>(out.data());
  while (byte < end) {
    const std::size_t blk = byte / block_bytes;
    const std::size_t n_bytes =
        std::min(end, (blk + 1) * block_bytes) - byte;
    const std::size_t lane0 = byte * lanes_per_byte;
    backend.thc_encode_lanes(rotated_[w].data() + lane0,
                             u_[w].data() + lane0, n_bytes * lanes_per_byte,
                             ranges_[blk].lo, ranges_[blk].hi, config.q,
                             config.b, dst);
    dst += n_bytes;
    byte += n_bytes;
  }
}

void ThcRound::absorb_reduced(const ByteBuffer& reduced) {
  const auto& config = codec_.config();
  const std::size_t n_blocks = codec_.n_blocks();
  if (stage_ == kRangeLo || stage_ == kRangeHi) {
    GCS_CHECK(reduced.size() == n_blocks * sizeof(float));
    const auto* vals = reinterpret_cast<const float*>(reduced.data());
    if (stage_ == kRangeLo) {
      ranges_.resize(n_blocks);
      for (std::size_t blk = 0; blk < n_blocks; ++blk) {
        ranges_[blk].lo = vals[blk];
      }
      stage_ = kRangeHi;
    } else {
      for (std::size_t blk = 0; blk < n_blocks; ++blk) {
        ranges_[blk].hi = vals[blk];
      }
      stage_ = kLevels;
      if (fused_levels_) {
        // Materialize every held worker's stochastic draws now (identical
        // Rng stream to the legacy per-encode draws: one next_float per
        // padded coordinate, in coordinate order; each worker's stream is
        // seeded independently) so level encoding becomes a pure function
        // of (worker, range).
        const auto n = static_cast<std::size_t>(config.world_size);
        for (std::size_t w = 0; w < n; ++w) {
          if (!held_.holds(w)) continue;
          Rng rng(derive_seed(config.seed ^ 0x5707c457, round_ * n + w));
          for (float& u : u_[w]) u = rng.next_float();
        }
      }
    }
    return;
  }
  if (!config.saturation) {
    // Wide mode allocates enough headroom that clipping is impossible.
    GCS_CHECK_MSG(sat_.clips == 0,
                  "overflow in wide (non-saturating) THC aggregation");
  }
  // Homomorphic decode of the aggregated level sums; both paths write
  // every padded coordinate.
  require_stage(stage_ == kLevels, codec_,
                "levels absorbed before the range consensus");
  const std::size_t padded = codec_.padded();
  const auto n = static_cast<unsigned>(config.world_size);
  for (const auto& rotated : rotated_) {
    if (!rotated.empty()) {
      rotated_sum_ = rotated;
      break;
    }
  }
  if (fused_levels_) {
    // Fused unpack + dequantize per block (int32 level sums are exact
    // here: n * 2^{q-1} + 2^{b-1} is far below 2^31 for q, b <= 8).
    if (reduced.size() < packed_bytes(padded, config.b)) {
      throw Error("unpack_lanes: payload too short");
    }
    const auto* in = reinterpret_cast<const std::uint8_t*>(reduced.data());
    const std::size_t block_bytes = codec_.block() * config.b / 8;
    const auto& backend = kernels::active();
    for (std::size_t blk = 0; blk < codec_.n_blocks(); ++blk) {
      const std::size_t begin = blk * codec_.block();
      const std::size_t len = std::min(codec_.block(), padded - begin);
      backend.thc_decode_lanes(in + blk * block_bytes, len,
                               ranges_[blk].lo, ranges_[blk].hi, config.q,
                               config.b, n, rotated_sum_.data() + begin);
    }
    stage_ = kDone;
    return;
  }
  const std::int32_t offset = 1 << (config.q - 1);
  const auto sums = unpack_signed_lanes(reduced, padded, config.b);
  for (std::size_t blk = 0; blk < codec_.n_blocks(); ++blk) {
    const std::size_t begin = blk * codec_.block();
    const std::size_t len = std::min(codec_.block(), padded - begin);
    for (std::size_t i = 0; i < len; ++i) {
      const std::int64_t level_sum =
          static_cast<std::int64_t>(sums[begin + i]) +
          static_cast<std::int64_t>(n) * offset;
      rotated_sum_[begin + i] =
          dequantize_level_sum(level_sum, n, ranges_[blk], config.q);
    }
  }
  stage_ = kDone;
}

void ThcRound::finish(std::span<float> out, RoundStats& stats) {
  require_stage(stage_ == kDone, codec_,
                "finish before the levels were absorbed");
  const std::size_t d = codec_.config().dimension;
  if (codec_.rht()) {
    codec_.rht()->inverse(rotated_sum_, out, signs_);
  } else {
    std::memcpy(out.data(), rotated_sum_.data(), d * sizeof(float));
  }
  stats.sat = sat_;
}

}  // namespace

std::string to_string(RotationMode mode) {
  switch (mode) {
    case RotationMode::kNone: return "no-rotation";
    case RotationMode::kPartial: return "partial-rotation";
    case RotationMode::kFull: return "full-rotation";
  }
  return "?";
}

SchemeCodecPtr make_thc_codec(const ThcConfig& config) {
  return std::make_unique<ThcCodec>(config);
}

}  // namespace gcs::core
