#include "core/powersgd_compressor.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "core/error_feedback.h"
#include "kernels/kernels.h"
#include "lowrank/orthogonalize.h"
#include "lowrank/powersgd_step.h"
#include "numeric/half.h"

namespace gcs::core {
namespace {

/// Encodes a float span as FP16 into a growing buffer (bulk kernel pass).
void put_fp16(ByteBuffer& buf, std::span<const float> values) {
  const std::size_t old = buf.size();
  buf.resize(old + values.size() * sizeof(std::uint16_t));
  kernels::active().fp32_to_fp16(
      values.data(), values.size(),
      reinterpret_cast<std::uint16_t*>(buf.data() + old));
}

/// Decodes `count` FP16 values starting at byte `offset`.
void get_fp16(std::span<const std::byte> buf, std::size_t offset,
              std::span<float> out) {
  GCS_CHECK(offset + out.size() * 2 <= buf.size());
  kernels::active().fp16_to_fp32(
      reinterpret_cast<const std::uint16_t*>(buf.data() + offset),
      out.size(), out.data());
}

class PowerSgdCodec;

/// Two dependent FP16 all-reduce stages: phase A carries P = M Q per
/// low-rank layer (dense-exact layers ride along uncompressed); after the
/// reduced P sums are orthonormalized, phase B carries Q = M^T P_hat.
class PowerSgdRound final : public CodecRound {
 public:
  PowerSgdRound(PowerSgdCodec& codec,
                std::span<const std::span<const float>> grads);

  bool next_stage(WireStage& stage) override;
  ByteBuffer encode(int worker) override;
  void encode_into(int worker, ByteBuffer& out) override;
  void absorb_reduced(const ByteBuffer& reduced) override;
  void finish(std::span<float> out, RoundStats& stats) override;

 private:
  enum Stage { kPhaseA = 0, kPhaseB = 1, kDone = 2 };

  PowerSgdCodec& codec_;
  HeldWorkers held_;
  int stage_ = kPhaseA;
  bool any_low_rank_ = false;
  // Views of the codec's round scratch (PowerSgdCodec::Scratch): per held
  // worker the compensated gradient, per layer the orthonormalized P sum
  // (low-rank layers) or the reduced values (dense layers).
  std::vector<std::span<float>> ys_;
  std::vector<std::span<float>> p_hats_;
  std::vector<std::span<float>> dense_sums_;
  // The reduced Q payload, decoded in finish(): absorb_reduced's bytes
  // stay valid until then (the CodecRound contract).
  std::span<const std::byte> reduced_b_;
};

class PowerSgdCodec final : public SchemeCodec {
 public:
  explicit PowerSgdCodec(const PowerSgdConfig& config)
      : config_(config),
        ef_(config.world_size, config.layout.total_size(),
            config.error_feedback),
        fp16_sum_(comm::make_fp16_sum()) {
    GCS_CHECK(config_.layout.total_size() > 0);
    GCS_CHECK(config_.rank >= 1);
    Rng rng(config_.seed);  // shared: all workers hold identical Q iterates
    for (std::size_t l = 0; l < config_.layout.num_layers(); ++l) {
      const auto& layer = config_.layout.layer(l);
      if (is_low_rank(layer)) {
        states_.push_back(PowerSgdLayerState::init(layer.rows, layer.cols,
                                                   config_.rank, rng));
        const auto& st = states_.back();
        max_factor_ = std::max(max_factor_,
                               std::max(st.rows, st.cols) * st.rank);
      } else {
        states_.push_back(PowerSgdLayerState{});  // dense-exact layer
      }
    }
  }

  std::string name() const override {
    return "PowerSGD-" + std::to_string(config_.rank);
  }
  AggregationPath path() const override {
    return AggregationPath::kAllReduce;
  }
  int world_size() const override { return config_.world_size; }
  std::size_t dimension() const override {
    return config_.layout.total_size();
  }

  std::unique_ptr<CodecRound> begin_round(
      std::span<const std::span<const float>> grads,
      std::uint64_t /*round*/) override {
    return std::make_unique<PowerSgdRound>(*this, grads);
  }

  void reset() override {
    ef_.reset();
    Rng rng(config_.seed);
    for (std::size_t l = 0; l < states_.size(); ++l) {
      const auto& layer = config_.layout.layer(l);
      if (states_[l].rank != 0) {
        states_[l] = PowerSgdLayerState::init(layer.rows, layer.cols,
                                              config_.rank, rng);
      }
    }
  }

  SchemeCodecPtr remap_workers(
      std::span<const int> survivors) const override {
    check_survivor_set(survivors, config_.world_size);
    PowerSgdConfig shrunk = config_;
    shrunk.world_size = static_cast<int>(survivors.size());
    auto codec = std::make_unique<PowerSgdCodec>(shrunk);
    codec->ef_ = ef_.remap(survivors);
    // The Q iterates are shared cluster state (identical on every
    // worker); the warm start survives the membership change as is.
    codec->states_ = states_;
    return codec;
  }

  std::span<const float> ef_memory(int worker) const override {
    if (!ef_.enabled()) return {};
    return ef_.memory(worker);
  }

  const PowerSgdConfig& config() const noexcept { return config_; }
  ErrorFeedback& ef() noexcept { return ef_; }
  const comm::ReduceOp& fp16_sum() const noexcept { return *fp16_sum_; }
  std::vector<PowerSgdLayerState>& states() noexcept { return states_; }

  bool is_low_rank(const LayerSpec& layer) const noexcept {
    // Layers whose smaller side does not exceed r are cheaper to send
    // exactly (the reference implementation's rule for vectors).
    return std::min(layer.rows, layer.cols) > config_.rank;
  }

  std::span<const float> layer_span(std::span<const float> x,
                                    std::size_t l) const {
    return x.subspan(config_.layout.offset(l),
                     config_.layout.layer(l).size());
  }
  std::span<float> layer_span_mut(std::span<float> x, std::size_t l) const {
    return x.subspan(config_.layout.offset(l),
                     config_.layout.layer(l).size());
  }

  /// The largest P or Q factor of any low-rank layer, in floats.
  std::size_t max_factor() const noexcept { return max_factor_; }

  /// Round scratch lent to each session (see lend_scratch): not state, so
  /// remap_workers builds a codec without it.
  struct Scratch {
    std::vector<std::vector<float>> ys;       // per worker, d
    std::vector<std::vector<float>> factors;  // per worker, max_factor()
    std::vector<std::vector<float>> p_hats;   // per low-rank layer
    std::vector<std::vector<float>> dense_sums;  // per dense layer
  };
  Scratch& scratch() noexcept { return scratch_; }

 private:
  PowerSgdConfig config_;
  ErrorFeedback ef_;
  std::unique_ptr<comm::ReduceOp> fp16_sum_;
  std::vector<PowerSgdLayerState> states_;
  std::size_t max_factor_ = 0;
  Scratch scratch_;
};

PowerSgdRound::PowerSgdRound(PowerSgdCodec& codec,
                             std::span<const std::span<const float>> grads)
    : codec_(codec),
      held_(grads, codec.config().world_size, codec.dimension()) {
  const auto& config = codec_.config();
  const std::size_t d = config.layout.total_size();
  const auto n = static_cast<std::size_t>(config.world_size);

  for (const auto& state : codec_.states()) {
    if (state.rank != 0) any_low_rank_ = true;
  }

  // EF compensation.
  auto& scratch = codec_.scratch();
  scratch.ys.resize(n);
  scratch.factors.resize(n);
  ys_.resize(n);
  for (std::size_t w = 0; w < n; ++w) {
    if (!held_.holds(w)) continue;
    ys_[w] = lend_scratch(scratch.ys[w], d);
    codec_.ef().compensate(static_cast<int>(w), grads[w], ys_[w]);
  }
}

bool PowerSgdRound::next_stage(WireStage& stage) {
  if (stage_ >= kDone) return false;
  if (stage_ == kPhaseB && !any_low_rank_) return false;
  stage = WireStage{};
  stage.route = AggregationPath::kAllReduce;
  stage.op = &codec_.fp16_sum();
  stage.name = stage_ == kPhaseA ? "p-and-dense" : "q";
  return true;
}

ByteBuffer PowerSgdRound::encode(int worker) {
  ByteBuffer buf;
  encode_into(worker, buf);
  return buf;
}

void PowerSgdRound::encode_into(int worker, ByteBuffer& out) {
  held_.require(worker, codec_);
  require_stage(stage_ < kDone, codec_, "encode after the last stage");
  const auto w = static_cast<std::size_t>(worker);
  auto& states = codec_.states();
  // The worker's own factor buffer: encodes of distinct workers may run
  // concurrently.
  const auto factor =
      lend_scratch(codec_.scratch().factors[w], codec_.max_factor());
  out.clear();
  if (stage_ == kPhaseA) {
    // P = M Q per low-rank layer; dense layers ride along uncompressed
    // (both are FP16 payloads under the same fp16-sum ring).
    for (std::size_t l = 0; l < states.size(); ++l) {
      const auto& layer = codec_.config().layout.layer(l);
      auto m = codec_.layer_span(ys_[w], l);
      if (states[l].rank == 0) {
        put_fp16(out, m);
      } else {
        const auto p = factor.first(layer.rows * states[l].rank);
        powersgd_compute_p(m, states[l], p);
        put_fp16(out, p);
      }
    }
    return;
  }
  // Phase B: Q = M^T P_hat per low-rank layer.
  for (std::size_t l = 0; l < states.size(); ++l) {
    if (states[l].rank == 0) continue;
    const auto& layer = codec_.config().layout.layer(l);
    auto m = codec_.layer_span(ys_[w], l);
    const auto q = factor.first(layer.cols * states[l].rank);
    powersgd_compute_q(m, states[l], p_hats_[l], q);
    put_fp16(out, q);
  }
}

void PowerSgdRound::absorb_reduced(const ByteBuffer& reduced) {
  auto& states = codec_.states();
  if (stage_ == kPhaseA) {
    // Orthonormalize each P sum (identical on every worker since the
    // input is identical); stash dense-layer sums.
    auto& scratch = codec_.scratch();
    scratch.p_hats.resize(states.size());
    scratch.dense_sums.resize(states.size());
    p_hats_.assign(states.size(), {});
    dense_sums_.assign(states.size(), {});
    std::size_t offset = 0;
    for (std::size_t l = 0; l < states.size(); ++l) {
      const auto& layer = codec_.config().layout.layer(l);
      if (states[l].rank == 0) {
        dense_sums_[l] = lend_scratch(scratch.dense_sums[l], layer.size());
        get_fp16(reduced, offset, dense_sums_[l]);
        offset += layer.size() * 2;
      } else {
        p_hats_[l] = lend_scratch(scratch.p_hats[l],
                                  layer.rows * states[l].rank);
        get_fp16(reduced, offset, p_hats_[l]);
        offset += p_hats_[l].size() * 2;
        orthogonalize_columns(p_hats_[l], layer.rows, states[l].rank);
      }
    }
    stage_ = any_low_rank_ ? kPhaseB : kDone;
    return;
  }
  require_stage(stage_ == kPhaseB, codec_,
                "Q absorbed before this round's P consensus");
  reduced_b_ = reduced;
  stage_ = kDone;
}

void PowerSgdRound::finish(std::span<float> out, RoundStats& /*stats*/) {
  require_stage(stage_ == kDone, codec_,
                "finish before the last stage was absorbed");
  const auto& config = codec_.config();
  const auto n = static_cast<std::size_t>(config.world_size);
  auto& states = codec_.states();

  // Reconstruct the aggregated sum estimate and update warm starts: the
  // reduced Q sum is decoded straight into the layer's iterate, which
  // the reconstruction reads only through its argument.
  {
    std::size_t offset = 0;
    for (std::size_t l = 0; l < states.size(); ++l) {
      auto out_slice = codec_.layer_span_mut(out, l);
      if (states[l].rank == 0) {
        std::copy(dense_sums_[l].begin(), dense_sums_[l].end(),
                  out_slice.begin());
        continue;
      }
      auto& q_sum = states[l].q;  // warm start for the next round
      get_fp16(reduced_b_, offset, q_sum);
      offset += q_sum.size() * 2;
      powersgd_reconstruct(states[l], p_hats_[l], q_sum, out_slice);
    }
  }

  // EF: memory = y - reconstruction/n on low-rank layers only (dense
  // layers are transmitted exactly, modulo FP16 rounding, so their
  // memory is y - y), written straight into each worker's memory in one
  // pass per layer.
  if (codec_.ef().enabled()) {
    const float inv_n = 1.0f / static_cast<float>(n);
    const auto& k = kernels::active();
    for (std::size_t w = 0; w < n; ++w) {
      if (!held_.holds(w)) continue;
      auto memory = codec_.ef().mutable_memory(static_cast<int>(w));
      for (std::size_t l = 0; l < states.size(); ++l) {
        auto mw = codec_.layer_span_mut(memory, l);
        auto yw = codec_.layer_span(ys_[w], l);
        if (states[l].rank == 0) {
          for (std::size_t i = 0; i < mw.size(); ++i) mw[i] = yw[i] - yw[i];
        } else {
          auto ow = codec_.layer_span(std::span<const float>(out), l);
          k.sub_scaled(yw.data(), ow.data(), inv_n, mw.size(), mw.data());
        }
      }
    }
  }
}

}  // namespace

SchemeCodecPtr make_powersgd_codec(const PowerSgdConfig& config) {
  return std::make_unique<PowerSgdCodec>(config);
}

}  // namespace gcs::core
