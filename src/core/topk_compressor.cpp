#include "core/topk_compressor.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "core/error_feedback.h"
#include "kernels/kernels.h"
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
  bool absorbed_ = false;
  // Views of the codec's round scratch (TopKCodec::Scratch): per held
  // worker the compensated gradient y and its selection. EF commit is
  // deferred to finish() — the codec-layer contract that an abandoned
  // session (an aborted round on an elastic transport) leaves the codec's
  // cross-round state untouched, so the round can be retried on a
  // shrunken world from exactly the pre-round state.
  std::vector<std::span<float>> ys_;
  std::span<const std::vector<std::uint32_t>> idx_;
  // The gathered payloads, validated by absorb_gathered and scattered by
  // finish(): their bytes stay valid until then (the CodecRound contract).
  std::vector<SparseFp16View> plain_;
  std::vector<std::span<const std::byte>> delta_;
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
    // Per worker, d: y. finish() commits a held worker's y as its EF
    // memory by exchanging the buffers (ErrorFeedback::absorb_unsent), so
    // this slot then holds the old memory, overwritten next round.
    std::vector<std::vector<float>> ys;
    std::vector<std::vector<std::uint32_t>> idx;  // per worker, k
    TopKScratch select;  // the key histogram and the select's candidates
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
    // One sweep over d: y = g + m with y's key histogram, then the select
    // works over the threshold bucket's candidates only.
    codec_.ef().compensate_key_hist(
        static_cast<int>(w), grads[w], ys_[w],
        lend_scratch(scratch.select.hist, kernels::kKeyHistSlots).data());
    top_k_from_key_hist(ys_[w], config.k, scratch.select, scratch.idx[w]);
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
  // Both formats gather and convert the selected values straight into
  // the wire buffer (byte-identical to extract_sparse + encode).
  if (codec_.config().delta_indices) {
    encode_sparse_delta16_gather(ys_[w], idx_[w], out);
  } else {
    encode_sparse_fp16_gather(ys_[w], idx_[w], out);
  }
}

void TopKRound::absorb_gathered(std::span<const ByteBuffer> payloads) {
  const auto& config = codec_.config();
  require_stage(stage_done_ && !absorbed_, codec_,
                "gathered payloads absorbed out of stage order");
  if (payloads.size() != static_cast<std::size_t>(config.world_size)) {
    throw Error("TopK: " + std::to_string(payloads.size()) +
                " gathered payloads for a world of " +
                std::to_string(config.world_size));
  }
  // Validate every payload before anything is committed: finish() runs
  // after the elastic commit barrier, and a hostile payload must leave the
  // output and every EF memory untouched. Nothing is decoded here; the
  // payloads' bytes outlive finish(), which scatters them into `out`.
  plain_.clear();
  delta_.clear();
  for (const auto& payload : payloads) {
    if (config.delta_indices) {
      check_sparse_delta16(payload, config.dimension);
      delta_.push_back(payload);
    } else {
      plain_.push_back(view_sparse_fp16(payload, config.dimension));
    }
  }
  absorbed_ = true;
}

void TopKRound::finish(std::span<float> out, RoundStats& /*stats*/) {
  require_stage(absorbed_, codec_,
                "finish before the gathered payloads were absorbed");
  // Every worker scatter-adds all payloads in rank order, straight into
  // the output.
  if (codec_.config().delta_indices) {
    std::fill(out.begin(), out.end(), 0.0f);
    for (const auto payload : delta_) scatter_add_sparse_delta16(payload, out);
  } else {
    sum_sparse_fp16(plain_, out);
  }
  // The transmitted contribution is the FP16-rounded selected values; the
  // EF memory keeps everything else, written by exception (see
  // ErrorFeedback::absorb_unsent). Memories are per-worker, so deferring
  // the commit to finish() is bit-transparent, and it keeps aborted
  // rounds side-effect-free.
  if (codec_.ef().enabled()) {
    auto& ys = codec_.scratch().ys;
    for (std::size_t w = 0; w < ys_.size(); ++w) {
      if (!held_.holds(w)) continue;
      const auto memory = codec_.ef().absorb_unsent(static_cast<int>(w), ys[w]);
      for (const std::uint32_t i : idx_[w]) memory[i] = 0.0f;
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
