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
  bool supports_encode_range() const override { return stage_ == 1; }
  void encode_range(int worker, std::size_t offset,
                    std::span<std::byte> out) override;
  void absorb_reduced(const ByteBuffer& reduced) override;
  void finish(std::span<float> out, RoundStats& stats) override;

 private:
  TopKCCodec& codec_;
  HeldWorkers held_;
  int stage_ = 0;  // 0 = chunk-norms pending, 1 = values pending, 2 = done
  std::vector<std::vector<float>> ys_;
  std::vector<std::uint32_t> top_chunks_;
  std::size_t payload_coords_ = 0;
  // Per selected chunk: begin coordinate in y, and the cumulative payload
  // coordinate offset (sel_prefix_ has one extra trailing entry ==
  // payload_coords_). Built with the selection; lets encode_range map a
  // payload byte range back to (chunk, intra-chunk offset) pairs.
  std::vector<std::size_t> sel_begin_, sel_len_, sel_prefix_;
  std::vector<float> summed_;
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

  void permute_in_place(std::span<float> x) const {
    scratch_.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) scratch_[i] = x[perm_[i]];
    std::copy(scratch_.begin(), scratch_.end(), x.begin());
  }

  void unpermute_in_place(std::span<float> x) const {
    scratch_.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) scratch_[i] = x[inv_perm_[i]];
    std::copy(scratch_.begin(), scratch_.end(), x.begin());
  }

 private:
  TopKCConfig config_;
  std::size_t n_chunks_ = 0;
  ErrorFeedback ef_;
  std::unique_ptr<comm::ReduceOp> fp16_sum_;
  std::vector<std::uint32_t> perm_;
  std::vector<std::uint32_t> inv_perm_;
  mutable std::vector<float> scratch_;
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
  ys_.resize(n);
  std::vector<float> local(d);
  for (std::size_t w = 0; w < n; ++w) {
    if (!held_.holds(w)) continue;
    ys_[w].resize(d);
    std::copy(grads[w].begin(), grads[w].end(), local.begin());
    if (config.permute) codec_.permute_in_place(local);
    codec_.ef().compensate(static_cast<int>(w), local, ys_[w]);
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
  held_.require(worker, codec_);
  const auto& config = codec_.config();
  const auto& y = ys_[static_cast<std::size_t>(worker)];
  if (stage_ == 0) {
    // Squared chunk norms, rounded to FP16 exactly as they travel. The
    // norm accumulation order is wire-visible; the chunk_sq_norms kernel
    // keeps it (one chunk per lane, sequential within the chunk).
    std::vector<float> scores(codec_.n_chunks());
    chunk_squared_norms(y, config.chunk_size, scores);
    ByteBuffer buf(scores.size() * sizeof(std::uint16_t));
    kernels::active().fp32_to_fp16(
        scores.data(), scores.size(),
        reinterpret_cast<std::uint16_t*>(buf.data()));
    return buf;
  }
  // Fused per-chunk gather + FP16 conversion straight into the wire
  // buffer: no intermediate gathered copy.
  ByteBuffer buf(payload_coords_ * sizeof(std::uint16_t));
  encode_range(worker, 0, buf);
  return buf;
}

void TopKCRound::encode_range(int worker, std::size_t offset,
                              std::span<std::byte> out) {
  held_.require(worker, codec_);
  GCS_CHECK(stage_ == 1);
  GCS_CHECK(offset % 2 == 0 && out.size() % 2 == 0);
  GCS_CHECK(offset + out.size() <= payload_coords_ * 2);
  const auto& y = ys_[static_cast<std::size_t>(worker)];
  const auto& backend = kernels::active();
  std::size_t coord = offset / 2;
  std::size_t left = out.size() / 2;
  auto* dst = reinterpret_cast<std::uint16_t*>(out.data());
  // Locate the selected chunk containing `coord` in the payload layout.
  std::size_t c = static_cast<std::size_t>(
      std::upper_bound(sel_prefix_.begin(), sel_prefix_.end(), coord) -
      sel_prefix_.begin() - 1);
  while (left > 0) {
    const std::size_t local = coord - sel_prefix_[c];
    const std::size_t take = std::min(left, sel_len_[c] - local);
    backend.fp32_to_fp16(y.data() + sel_begin_[c] + local, take, dst);
    dst += take;
    coord += take;
    left -= take;
    ++c;
  }
}

void TopKCRound::absorb_reduced(const ByteBuffer& reduced) {
  if (stage_ == 0) {
    // Consensus: identical aggregated scores => identical selection on
    // every worker, with no further traffic.
    GCS_CHECK(reduced.size() == codec_.n_chunks() * 2);
    std::vector<float> scores(codec_.n_chunks());
    kernels::active().fp16_to_fp32(
        reinterpret_cast<const std::uint16_t*>(reduced.data()),
        scores.size(), scores.data());
    top_chunks_ = select_top_chunks(scores, codec_.config().num_top_chunks);
    payload_coords_ = codec_.payload_size(top_chunks_);
    // Chunk layout tables for per-range value encoding.
    const auto& config = codec_.config();
    sel_begin_.clear();
    sel_len_.clear();
    sel_prefix_.assign(1, 0);
    for (auto chunk : top_chunks_) {
      const std::size_t begin =
          static_cast<std::size_t>(chunk) * config.chunk_size;
      const std::size_t len =
          std::min(config.chunk_size, config.dimension - begin);
      sel_begin_.push_back(begin);
      sel_len_.push_back(len);
      sel_prefix_.push_back(sel_prefix_.back() + len);
    }
    stage_ = 1;
    return;
  }
  GCS_CHECK(reduced.size() == payload_coords_ * 2);
  summed_.resize(payload_coords_);
  kernels::active().fp16_to_fp32(
      reinterpret_cast<const std::uint16_t*>(reduced.data()),
      payload_coords_, summed_.data());
  stage_ = 2;
}

void TopKCRound::finish(std::span<float> out, RoundStats& /*stats*/) {
  const auto& config = codec_.config();
  const std::size_t d = config.dimension;
  scatter_chunks(summed_, config.chunk_size, top_chunks_, out);
  if (config.permute) codec_.unpermute_in_place(out);

  // EF: the transmitted contribution per worker is its selected chunks.
  if (codec_.ef().enabled()) {
    std::vector<std::uint8_t> mask(d, 0);
    for (auto chunk : top_chunks_) {
      const std::size_t begin =
          static_cast<std::size_t>(chunk) * config.chunk_size;
      const std::size_t end = std::min(begin + config.chunk_size, d);
      std::fill(mask.begin() + static_cast<std::ptrdiff_t>(begin),
                mask.begin() + static_cast<std::ptrdiff_t>(end),
                std::uint8_t{1});
    }
    const auto n = static_cast<std::size_t>(config.world_size);
    for (std::size_t w = 0; w < n; ++w) {
      if (!held_.holds(w)) continue;
      codec_.ef().absorb_masked(static_cast<int>(w), ys_[w], mask);
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
