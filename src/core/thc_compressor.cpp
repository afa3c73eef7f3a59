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

  ThcCodec& codec_;
  HeldWorkers held_;
  std::uint64_t round_;
  int stage_ = kRangeLo;
  // Views of the codec's round scratch (ThcCodec::Scratch): the shared RHT
  // sign diagonal as bits, generated once per round, and per held worker
  // its rotated gradient and stochastic rounding draws (one per lane, in
  // coordinate order), the draws filled when the range consensus
  // completes so that level encoding is pure and per-range calls can run
  // concurrently.
  std::span<std::uint64_t> signs_;
  std::vector<std::span<float>> rotated_, u_;
  std::vector<std::vector<float>> lo_, hi_;  // per worker, per block
  std::vector<QuantRange> ranges_;
  SatStats sat_;
  std::unique_ptr<comm::ReduceOp> min_op_, max_op_, sat_op_;
  // The reduced levels payload, a view kept until finish() (the
  // CodecRound contract keeps its bytes alive), decoded block by block
  // there straight into the inverse rotation.
  const std::uint8_t* levels_ = nullptr;
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
    // The levels payload is whole bytes of lanes, and every level block
    // starts on a byte, which the fused level kernels and per-range
    // encoding rely on. Only rotation blocks of one or two coordinates
    // break that. A single such block (d <= 2 with b < 8) is padded to a
    // byte of lanes that quantize zeros; several (a shared-memory budget
    // under 16 bytes makes 2-float blocks) at b = 2 would split bytes
    // between ranges, so that config is refused.
    lanes_ = ceil_div(padded_ * config_.b, 8) * 8 / config_.b;
    level_block_ = n_blocks_ == 1 ? lanes_ : block_;
    if (level_block_ * config_.b % 8 != 0) {
      throw Error("THC: " + std::to_string(block_) +
                  "-coordinate rotation blocks at b=" +
                  std::to_string(config_.b) +
                  " split wire bytes; use shared_memory_bytes >= 16 or "
                  "b >= 4");
    }
    u_split_ = StreamSplit(lanes_);
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
  /// Lanes of the levels payload (padded, rounded up to whole bytes) and
  /// of one level block (block(), or every lane when n_blocks() == 1).
  std::size_t lanes() const noexcept { return lanes_; }
  std::size_t level_block() const noexcept { return level_block_; }
  const std::optional<RhtTransform>& rht() const noexcept { return rht_; }

  /// Lane starts of the stochastic-rounding streams (lanes() draws each).
  const StreamSplit& u_split() const noexcept { return u_split_; }

  /// Round scratch lent to each session (see lend_scratch): not state, so
  /// remap_workers builds a codec without it.
  struct Scratch {
    std::vector<std::uint64_t> signs;            // one bit per coordinate
    std::vector<std::vector<float>> rotated, u;  // per worker, lanes()
  };
  Scratch& scratch() noexcept { return scratch_; }

 private:
  ThcConfig config_;
  std::size_t padded_;
  unsigned iters_ = 0;
  std::size_t block_ = 0;
  std::size_t n_blocks_ = 0;
  std::size_t lanes_ = 0;
  std::size_t level_block_ = 0;
  std::optional<RhtTransform> rht_;
  StreamSplit u_split_;
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

  // Rotate each worker's gradient (shared sign diagonal, so the transform
  // commutes with summation across workers) and take each block's range
  // while the rotated block is still in cache; both consensus stages
  // serialize from those ranges. The sign diagonal is the same for every
  // worker — generate it once per round.
  auto& scratch = codec_.scratch();
  const auto& rht = codec_.rht();
  if (rht) {
    signs_ = lend_scratch(scratch.signs, rht->sign_words());
    rht->sign_bits(round_, signs_);
  }
  scratch.rotated.resize(n);
  scratch.u.resize(n);
  rotated_.resize(n);
  u_.resize(n);
  lo_.resize(n);
  hi_.resize(n);
  for (std::size_t w = 0; w < n; ++w) {
    if (!held_.holds(w)) continue;
    rotated_[w] = lend_scratch(scratch.rotated[w], codec_.lanes());
    u_[w] = lend_scratch(scratch.u[w], codec_.lanes());
    const std::span<float> rotated = rotated_[w].first(padded);
    std::fill(rotated_[w].begin() + static_cast<std::ptrdiff_t>(padded),
              rotated_[w].end(), 0.0f);
    auto& lo = lo_[w];
    auto& hi = hi_[w];
    lo.resize(codec_.n_blocks());
    hi.resize(codec_.n_blocks());
    const auto take_range = [&lo, &hi](std::size_t blk,
                                       std::span<const float> block) {
      const auto range = compute_range(block);
      lo[blk] = range.lo;
      hi[blk] = range.hi;
    };
    if (rht) {
      // Range blocks are the rotation blocks (the whole vector for the
      // full transform).
      rht->forward(grads[w], rotated, signs_, take_range);
    } else {
      std::memcpy(rotated.data(), grads[w].data(), d * sizeof(float));
      std::fill(rotated.begin() + static_cast<std::ptrdiff_t>(d),
                rotated.end(), 0.0f);
      take_range(0, rotated);
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
  // Single fused pass per block: stochastic level, offset-binary lane,
  // LSB-first bit packing — one kernel call instead of three sweeps.
  out.resize(packed_bytes(codec_.lanes(), codec_.config().b));
  encode_range(worker, 0, out);
}

bool ThcRound::supports_encode_range() const {
  // Only the levels payload is rangeable (the range stages are tiny
  // metadata).
  return stage_ == kLevels;
}

void ThcRound::encode_range(int worker, std::size_t offset,
                            std::span<std::byte> out) {
  held_.require(worker, codec_);
  const auto& config = codec_.config();
  const auto w = static_cast<std::size_t>(worker);
  // stage_ is this round's: kLevels means this round's range consensus
  // completed and drew u_ (the scratch holds some earlier round's draws
  // before that).
  require_stage(stage_ == kLevels, codec_,
                "encode_range needs the levels stage, after this round's "
                "range consensus");
  const std::size_t total = packed_bytes(codec_.lanes(), config.b);
  GCS_CHECK(offset + out.size() <= total);
  const unsigned lanes_per_byte = 8u / config.b;  // b in {2, 4, 8}
  const std::size_t block_bytes = codec_.level_block() * config.b / 8;
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
      // Fill every held worker's stochastic draws now (one next_float per
      // lane, in coordinate order; each worker's stream is
      // seeded independently) so level encoding becomes a pure function
      // of (worker, range).
      const auto n = static_cast<std::size_t>(config.world_size);
      const auto& backend = kernels::active();
      for (std::size_t w = 0; w < n; ++w) {
        if (!held_.holds(w)) continue;
        backend.uniform_fill(
            codec_.u_split().lanes(
                derive_seed(config.seed ^ 0x5707c457, round_ * n + w)),
            u_[w].size(), u_[w].data());
      }
    }
    return;
  }
  if (!config.saturation) {
    // Wide mode allocates enough headroom that clipping is impossible.
    GCS_CHECK_MSG(sat_.clips == 0,
                  "overflow in wide (non-saturating) THC aggregation");
  }
  require_stage(stage_ == kLevels, codec_,
                "levels absorbed before the range consensus");
  if (reduced.size() < packed_bytes(codec_.lanes(), config.b)) {
    throw Error("THC: levels payload too short");
  }
  // Decoding waits for finish(), block by block into the inverse rotation.
  levels_ = reinterpret_cast<const std::uint8_t*>(reduced.data());
  stage_ = kDone;
}

void ThcRound::finish(std::span<float> out, RoundStats& stats) {
  require_stage(stage_ == kDone, codec_,
                "finish before the levels were absorbed");
  const auto& config = codec_.config();
  const std::size_t padded = codec_.padded();
  const std::size_t block = codec_.block();
  const std::size_t level_block = codec_.level_block();
  const std::size_t block_bytes = level_block * config.b / 8;
  const auto n = static_cast<unsigned>(config.world_size);
  const auto& backend = kernels::active();
  // Homomorphic decode of the aggregated level sums (int32 level sums are
  // exact: n * 2^{q-1} + 2^{b-1} is far below 2^31 for q, b <= 8) into a
  // block of a held worker's rotated buffer, which every encode has
  // finished reading once the levels are absorbed.
  std::span<float> work;
  for (const auto& rotated : rotated_) {
    if (!rotated.empty()) {
      work = rotated.first(level_block);
      break;
    }
  }
  const auto decode = [&](std::size_t blk) {
    backend.thc_decode_lanes(levels_ + blk * block_bytes, level_block,
                             ranges_[blk].lo, ranges_[blk].hi, config.q,
                             config.b, n, work.data());
    return work.first(std::min(block, padded - blk * block));
  };
  if (codec_.rht()) {
    codec_.rht()->inverse(out, signs_, decode);
  } else {
    const std::span<float> sum = decode(0);  // one block: the whole vector
    std::memcpy(out.data(), sum.data(), out.size() * sizeof(float));
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
