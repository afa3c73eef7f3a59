#include "core/topkc_compressor.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "core/error_feedback.h"
#include "kernels/kernels.h"
#include "numeric/half.h"
#include "sparse/chunks.h"

namespace gcs::core {
namespace {

class TopKCCodec;

/// Two stages: (1) FP16 chunk-norm consensus, after which every worker
/// holds identical aggregated scores and picks the same top-J chunks;
/// (2) FP16 all-reduce of the selected chunks' values.
class TopKCRound final : public CodecRound {
 public:
  TopKCRound(TopKCCodec& codec, std::span<const std::span<const float>> grads);

  bool next_stage(WireStage& stage) override;
  ByteBuffer encode(int worker) override;
  void encode_into(int worker, ByteBuffer& out) override;
  bool supports_encode_range() const override { return stage_ == 1; }
  void encode_range(int worker, std::size_t offset,
                    std::span<std::byte> out) override;
  void absorb_reduced(const ByteBuffer& reduced) override;
  void finish(std::span<float> out, RoundStats& stats) override;

 private:
  TopKCCodec& codec_;
  HeldWorkers held_;
  int stage_ = 0;  // 0 = chunk-norms pending, 1 = values pending, 2 = done
  // Per held worker, the compensated gradient y: a view of the codec's
  // round scratch (TopKCCodec::Scratch), like the selection tables the
  // stage-1 calls read, which are valid from stage 1 on.
  std::vector<std::span<float>> ys_;
  std::size_t payload_coords_ = 0;
};

class TopKCCodec final : public SchemeCodec {
 public:
  explicit TopKCCodec(const TopKCConfig& config)
      : config_(config),
        ef_(config.world_size, config.dimension, config.error_feedback),
        fp16_sum_(comm::make_fp16_sum()) {
    GCS_CHECK(config_.dimension > 0);
    GCS_CHECK(config_.chunk_size >= 1);
    n_chunks_ = num_chunks(config_.dimension, config_.chunk_size);
    GCS_CHECK(config_.num_top_chunks >= 1 &&
              config_.num_top_chunks <= n_chunks_);
    if (config_.permute) {
      Rng rng(config_.permute_seed);
      perm_ = rng.permutation(config_.dimension);
      inv_perm_.resize(config_.dimension);
      for (std::size_t i = 0; i < perm_.size(); ++i) {
        inv_perm_[perm_[i]] = static_cast<std::uint32_t>(i);
      }
    }
  }

  std::string name() const override {
    return config_.permute ? "TopKC Permutation" : "TopKC";
  }
  AggregationPath path() const override {
    return AggregationPath::kAllReduce;
  }
  int world_size() const override { return config_.world_size; }
  std::size_t dimension() const override { return config_.dimension; }

  std::unique_ptr<CodecRound> begin_round(
      std::span<const std::span<const float>> grads,
      std::uint64_t /*round*/) override {
    return std::make_unique<TopKCRound>(*this, grads);
  }

  void reset() override { ef_.reset(); }

  SchemeCodecPtr remap_workers(
      std::span<const int> survivors) const override {
    check_survivor_set(survivors, config_.world_size);
    TopKCConfig shrunk = config_;
    shrunk.world_size = static_cast<int>(survivors.size());
    // The permutation is derived from the config seed, not the world
    // size, so the shrunken codec rebuilds the identical domain mapping
    // and the carried EF residuals stay consistent with it.
    auto codec = std::make_unique<TopKCCodec>(shrunk);
    codec->ef_ = ef_.remap(survivors);
    return codec;
  }

  std::span<const float> ef_memory(int worker) const override {
    if (!ef_.enabled()) return {};
    return ef_.memory(worker);
  }

  const TopKCConfig& config() const noexcept { return config_; }
  std::size_t n_chunks() const noexcept { return n_chunks_; }
  ErrorFeedback& ef() noexcept { return ef_; }
  const comm::ReduceOp& fp16_sum() const noexcept { return *fp16_sum_; }

  std::size_t payload_size(std::span<const std::uint32_t> chunks) const {
    std::size_t coords = 0;
    for (auto chunk : chunks) {
      const std::size_t begin =
          static_cast<std::size_t>(chunk) * config_.chunk_size;
      coords += std::min(config_.chunk_size, config_.dimension - begin);
    }
    return coords;
  }

  /// out[i] = x[perm[i]]: x in the permuted domain.
  void permute(std::span<const float> x, std::span<float> out) const {
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[perm_[i]];
  }

  /// Maps x back from the permuted domain, through d floats of `tmp`.
  void unpermute_in_place(std::span<float> x, std::span<float> tmp) const {
    for (std::size_t i = 0; i < x.size(); ++i) tmp[i] = x[inv_perm_[i]];
    std::copy(tmp.begin(), tmp.end(), x.begin());
  }

  /// Round scratch lent to each session (see lend_scratch): not state, so
  /// remap_workers builds a codec without it.
  struct Scratch {
    std::vector<std::vector<float>> ys;      // per worker, d
    std::vector<std::vector<float>> scores;  // per worker, one per chunk
    std::vector<float> permuted;  // d: the (un)permutation's staging copy
    std::vector<float> consensus;            // aggregated chunk scores
    std::vector<std::uint32_t> top_chunks;   // the selected chunk ids
    // Per selected chunk: begin coordinate in y, length, and the
    // cumulative payload coordinate offset (sel_prefix has one extra
    // trailing entry == the payload's coordinates). Built with the
    // selection; lets encode_range map a payload byte range back to
    // (chunk, intra-chunk offset) pairs.
    std::vector<std::size_t> sel_begin, sel_len, sel_prefix;
    std::vector<float> summed;  // the reduced selected values
  };
  Scratch& scratch() noexcept { return scratch_; }

 private:
  TopKCConfig config_;
  std::size_t n_chunks_ = 0;
  ErrorFeedback ef_;
  std::unique_ptr<comm::ReduceOp> fp16_sum_;
  std::vector<std::uint32_t> perm_;
  std::vector<std::uint32_t> inv_perm_;
  Scratch scratch_;
};

TopKCRound::TopKCRound(TopKCCodec& codec,
                       std::span<const std::span<const float>> grads)
    : codec_(codec),
      held_(grads, codec.config().world_size, codec.config().dimension) {
  const auto& config = codec_.config();
  const std::size_t d = config.dimension;
  const auto n = static_cast<std::size_t>(config.world_size);

  // Stage 0: optional locality-destroying permutation (identical on every
  // worker), then EF compensation. The permutation happens first so the EF
  // memories live consistently in the permuted domain.
  auto& scratch = codec_.scratch();
  scratch.ys.resize(n);
  scratch.scores.resize(n);
  ys_.resize(n);
  for (std::size_t w = 0; w < n; ++w) {
    if (!held_.holds(w)) continue;
    ys_[w] = lend_scratch(scratch.ys[w], d);
    std::span<const float> grad = grads[w];
    if (config.permute) {
      const auto permuted = lend_scratch(scratch.permuted, d);
      codec_.permute(grad, permuted);
      grad = permuted;
    }
    codec_.ef().compensate(static_cast<int>(w), grad, ys_[w]);
  }
}

bool TopKCRound::next_stage(WireStage& stage) {
  if (stage_ >= 2) return false;
  stage = WireStage{};
  stage.route = AggregationPath::kAllReduce;
  stage.op = &codec_.fp16_sum();
  if (stage_ == 0) {
    stage.name = "chunk-norms";
    stage.metadata = true;
  } else {
    stage.name = "chunk-values";
  }
  return true;
}

ByteBuffer TopKCRound::encode(int worker) {
  ByteBuffer buf;
  encode_into(worker, buf);
  return buf;
}

void TopKCRound::encode_into(int worker, ByteBuffer& out) {
  held_.require(worker, codec_);
  require_stage(stage_ < 2, codec_, "encode after the last stage");
  const auto w = static_cast<std::size_t>(worker);
  if (stage_ == 0) {
    // Squared chunk norms, rounded to FP16 exactly as they travel. The
    // norm accumulation order is wire-visible; the chunk_sq_norms kernel
    // keeps it (one chunk per lane, sequential within the chunk). The
    // scores buffer is the worker's own: encodes of distinct workers may
    // run concurrently.
    const auto scores =
        lend_scratch(codec_.scratch().scores[w], codec_.n_chunks());
    chunk_squared_norms(ys_[w], codec_.config().chunk_size, scores);
    out.resize(scores.size() * sizeof(std::uint16_t));
    kernels::active().fp32_to_fp16(
        scores.data(), scores.size(),
        reinterpret_cast<std::uint16_t*>(out.data()));
    return;
  }
  // Fused per-chunk gather + FP16 conversion straight into the wire
  // buffer: no intermediate gathered copy.
  out.resize(payload_coords_ * sizeof(std::uint16_t));
  encode_range(worker, 0, out);
}

void TopKCRound::encode_range(int worker, std::size_t offset,
                              std::span<std::byte> out) {
  held_.require(worker, codec_);
  // stage_ is this round's: the selection tables below are rebuilt by
  // this round's consensus before it reaches 1.
  require_stage(stage_ == 1, codec_,
                "encode_range needs this round's chunk selection");
  GCS_CHECK(offset % 2 == 0 && out.size() % 2 == 0);
  GCS_CHECK(offset + out.size() <= payload_coords_ * 2);
  const auto y = ys_[static_cast<std::size_t>(worker)];
  const auto& sel_begin = codec_.scratch().sel_begin;
  const auto& sel_len = codec_.scratch().sel_len;
  const auto& sel_prefix = codec_.scratch().sel_prefix;
  const auto& backend = kernels::active();
  std::size_t coord = offset / 2;
  std::size_t left = out.size() / 2;
  auto* dst = reinterpret_cast<std::uint16_t*>(out.data());
  // Locate the selected chunk containing `coord` in the payload layout.
  std::size_t c = static_cast<std::size_t>(
      std::upper_bound(sel_prefix.begin(), sel_prefix.end(), coord) -
      sel_prefix.begin() - 1);
  while (left > 0) {
    const std::size_t local = coord - sel_prefix[c];
    const std::size_t take = std::min(left, sel_len[c] - local);
    backend.fp32_to_fp16(y.data() + sel_begin[c] + local, take, dst);
    dst += take;
    coord += take;
    left -= take;
    ++c;
  }
}

void TopKCRound::absorb_reduced(const ByteBuffer& reduced) {
  auto& scratch = codec_.scratch();
  if (stage_ == 0) {
    // Consensus: identical aggregated scores => identical selection on
    // every worker, with no further traffic.
    GCS_CHECK(reduced.size() == codec_.n_chunks() * 2);
    const auto scores = lend_scratch(scratch.consensus, codec_.n_chunks());
    kernels::active().fp16_to_fp32(
        reinterpret_cast<const std::uint16_t*>(reduced.data()),
        scores.size(), scores.data());
    select_top_chunks(scores, codec_.config().num_top_chunks,
                      scratch.top_chunks);
    payload_coords_ = codec_.payload_size(scratch.top_chunks);
    // Chunk layout tables for per-range value encoding.
    const auto& config = codec_.config();
    scratch.sel_begin.clear();
    scratch.sel_len.clear();
    scratch.sel_prefix.assign(1, 0);
    for (auto chunk : scratch.top_chunks) {
      const std::size_t begin =
          static_cast<std::size_t>(chunk) * config.chunk_size;
      const std::size_t len =
          std::min(config.chunk_size, config.dimension - begin);
      scratch.sel_begin.push_back(begin);
      scratch.sel_len.push_back(len);
      scratch.sel_prefix.push_back(scratch.sel_prefix.back() + len);
    }
    stage_ = 1;
    return;
  }
  require_stage(stage_ == 1, codec_,
                "values absorbed before this round's chunk selection");
  GCS_CHECK(reduced.size() == payload_coords_ * 2);
  kernels::active().fp16_to_fp32(
      reinterpret_cast<const std::uint16_t*>(reduced.data()),
      payload_coords_, lend_scratch(scratch.summed, payload_coords_).data());
  stage_ = 2;
}

void TopKCRound::finish(std::span<float> out, RoundStats& /*stats*/) {
  require_stage(stage_ == 2, codec_,
                "finish before the chunk values were absorbed");
  const auto& config = codec_.config();
  auto& scratch = codec_.scratch();
  scatter_chunks(scratch.summed, config.chunk_size, scratch.top_chunks, out);
  if (config.permute) {
    codec_.unpermute_in_place(
        out, lend_scratch(scratch.permuted, config.dimension));
  }

  // EF: the transmitted contribution per worker is its selected chunks,
  // so the memory keeps y with those ranges zeroed (by exception, see
  // ErrorFeedback::absorb_unsent).
  if (codec_.ef().enabled()) {
    const auto n = static_cast<std::size_t>(config.world_size);
    for (std::size_t w = 0; w < n; ++w) {
      if (!held_.holds(w)) continue;
      const auto memory =
          codec_.ef().absorb_unsent(static_cast<int>(w), scratch.ys[w]);
      for (std::size_t c = 0; c < scratch.sel_begin.size(); ++c) {
        std::fill_n(memory.begin() +
                        static_cast<std::ptrdiff_t>(scratch.sel_begin[c]),
                    scratch.sel_len[c], 0.0f);
      }
    }
  }
}

}  // namespace

std::size_t TopKCConfig::j_for_bits(std::size_t dimension,
                                    std::size_t chunk_size, double bits) {
  const double d = static_cast<double>(dimension);
  const double c = static_cast<double>(chunk_size);
  const double j = (bits / 16.0 - 1.0 / c) * d / c;
  const auto max_j = num_chunks(dimension, chunk_size);
  if (j < 1.0) return 1;
  return std::min<std::size_t>(static_cast<std::size_t>(j), max_j);
}

SchemeCodecPtr make_topkc_codec(const TopKCConfig& config) {
  return std::make_unique<TopKCCodec>(config);
}

}  // namespace gcs::core
