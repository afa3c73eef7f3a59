#include "core/topk_compressor.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/error_feedback.h"
#include "sparse/sparse_wire.h"
#include "sparse/topk.h"

namespace gcs::core {
namespace {

class TopKCodec;

/// One all-gather stage: every worker's sparse (index, FP16 value) payload
/// reaches every worker, which scatter-adds the union.
class TopKRound final : public CodecRound {
 public:
  TopKRound(TopKCodec& codec, std::span<const std::span<const float>> grads);

  bool next_stage(WireStage& stage) override;
  ByteBuffer encode(int worker) override;
  void encode_into(int worker, ByteBuffer& out) override;

  void absorb_gathered(std::span<const ByteBuffer> payloads) override;
  void finish(std::span<float> out, RoundStats& stats) override;

 private:
  TopKCodec& codec_;
  HeldWorkers held_;
  bool stage_done_ = false;
  // Views of the codec's round scratch (TopKCodec::Scratch): per held
  // worker the compensated gradient y and its selection, and the
  // scatter-add sum. EF commit is deferred to finish() — the codec-layer
  // contract that an abandoned session (an aborted round on an elastic
  // transport) leaves the codec's cross-round state untouched, so the
  // round can be retried on a shrunken world from exactly the pre-round
  // state.
  std::vector<std::span<float>> ys_;
  std::span<const std::vector<std::uint32_t>> idx_;
  std::span<float> sum_;
};

class TopKCodec final : public SchemeCodec {
 public:
  explicit TopKCodec(const TopKConfig& config)
      : config_(config),
        ef_(config.world_size, config.dimension, config.error_feedback) {
    GCS_CHECK(config_.dimension > 0);
    GCS_CHECK(config_.k >= 1 && config_.k <= config_.dimension);
  }

  std::string name() const override { return "TopK"; }
  AggregationPath path() const override {
    return AggregationPath::kAllGather;
  }
  int world_size() const override { return config_.world_size; }
  std::size_t dimension() const override { return config_.dimension; }

  std::unique_ptr<CodecRound> begin_round(
      std::span<const std::span<const float>> grads,
      std::uint64_t /*round*/) override {
    return std::make_unique<TopKRound>(*this, grads);
  }

  void reset() override { ef_.reset(); }

  SchemeCodecPtr remap_workers(
      std::span<const int> survivors) const override {
    check_survivor_set(survivors, config_.world_size);
    TopKConfig shrunk = config_;
    shrunk.world_size = static_cast<int>(survivors.size());
    auto codec = std::make_unique<TopKCodec>(shrunk);
    codec->ef_ = ef_.remap(survivors);
    return codec;
  }

  std::span<const float> ef_memory(int worker) const override {
    if (!ef_.enabled()) return {};
    return ef_.memory(worker);
  }

  const TopKConfig& config() const noexcept { return config_; }
  ErrorFeedback& ef() noexcept { return ef_; }

  /// Round scratch lent to each session (see lend_scratch): not state, so
  /// remap_workers builds a codec without it.
  struct Scratch {
    std::vector<std::vector<float>> ys;           // per worker, d
    std::vector<std::vector<std::uint32_t>> idx;  // per worker, k
    // The selection's working buffers. Its d-float `mags` doubles as the
    // round's scatter-add sum: every selection is done by the time the
    // gathered payloads arrive.
    TopKScratch select;
  };
  Scratch& scratch() noexcept { return scratch_; }

 private:
  TopKConfig config_;
  ErrorFeedback ef_;
  Scratch scratch_;
};

TopKRound::TopKRound(TopKCodec& codec,
                     std::span<const std::span<const float>> grads)
    : codec_(codec),
      held_(grads, codec.config().world_size, codec.config().dimension) {
  const auto& config = codec_.config();
  const std::size_t d = config.dimension;
  const auto n = static_cast<std::size_t>(config.world_size);

  auto& scratch = codec_.scratch();
  scratch.ys.resize(n);
  scratch.idx.resize(n);
  ys_.resize(n);
  idx_ = scratch.idx;
  for (std::size_t w = 0; w < n; ++w) {
    if (!held_.holds(w)) continue;
    ys_[w] = lend_scratch(scratch.ys[w], d);
    codec_.ef().compensate(static_cast<int>(w), grads[w], ys_[w]);
    top_k_indices(ys_[w], config.k, scratch.select, scratch.idx[w]);
  }
}

bool TopKRound::next_stage(WireStage& stage) {
  if (stage_done_) return false;
  stage_done_ = true;
  stage = WireStage{};
  stage.name = "sparse-values";
  stage.route = AggregationPath::kAllGather;
  // K entries per worker: fixed size, except that the delta format pads
  // per worker.
  stage.symmetric = !codec_.config().delta_indices;
  return true;
}

ByteBuffer TopKRound::encode(int worker) {
  ByteBuffer buf;
  encode_into(worker, buf);
  return buf;
}

void TopKRound::encode_into(int worker, ByteBuffer& out) {
  held_.require(worker, codec_);
  const auto w = static_cast<std::size_t>(worker);
  // Plain-index payloads are built by a fused gather+fp16 pass straight
  // into the wire buffer (byte-identical to extract_sparse + encode).
  if (codec_.config().delta_indices) {
    out = encode_sparse_delta16(extract_sparse(ys_[w], idx_[w]));
  } else {
    encode_sparse_fp16_gather(ys_[w], idx_[w], out);
  }
}

void TopKRound::finish(std::span<float> out, RoundStats& /*stats*/) {
  require_stage(!sum_.empty(), codec_,
                "finish before the gathered payloads were absorbed");
  std::copy(sum_.begin(), sum_.end(), out.begin());
  // The transmitted contribution is the FP16-rounded selected values; the
  // EF memory keeps everything else, written by exception (see
  // ErrorFeedback::absorb_unsent). Memories are per-worker, so deferring
  // the writes to finish() is bit-transparent, and it keeps aborted
  // rounds side-effect-free.
  if (codec_.ef().enabled()) {
    const auto n = ys_.size();
    for (std::size_t w = 0; w < n; ++w) {
      if (!held_.holds(w)) continue;
      const auto memory =
          codec_.ef().absorb_unsent(static_cast<int>(w), ys_[w]);
      for (const std::uint32_t i : idx_[w]) memory[i] = 0.0f;
    }
  }
}

void TopKRound::absorb_gathered(std::span<const ByteBuffer> payloads) {
  const auto& config = codec_.config();
  sum_ = lend_scratch(codec_.scratch().select.mags, config.dimension);
  std::fill(sum_.begin(), sum_.end(), 0.0f);
  // Every worker receives all payloads and scatter-adds in rank order.
  for (const auto& payload : payloads) {
    if (config.delta_indices) {
      scatter_add(decode_sparse_delta16(payload), sum_);
    } else {
      // Fused decode + accumulate: no SparseVector materialization.
      scatter_add_sparse_fp16(payload, sum_);
    }
  }
}

}  // namespace

std::size_t TopKConfig::k_for_bits(std::size_t dimension, double bits,
                                   bool delta_indices) {
  const double per_entry = delta_indices ? 32.0 : 48.0;
  const double k = static_cast<double>(dimension) * bits / per_entry;
  return std::max<std::size_t>(1, static_cast<std::size_t>(k));
}

SchemeCodecPtr make_topk_codec(const TopKConfig& config) {
  return std::make_unique<TopKCodec>(config);
}

}  // namespace gcs::core
