#include "core/baselines.h"

#include <cstring>
#include <utility>

#include "common/check.h"
#include "kernels/kernels.h"
#include "numeric/half.h"

namespace gcs::core {
namespace {

class DenseCodec;

/// One stage: the raw (FP32) or rounded (FP16) gradient, summed hop by hop
/// through the ring (or the binomial tree under the ablation knob).
class DenseRound final : public CodecRound {
 public:
  DenseRound(const DenseCodec& codec,
             std::span<const std::span<const float>> grads);

  bool next_stage(WireStage& stage) override;
  ByteBuffer encode(int worker) override;
  void encode_into(int worker, ByteBuffer& out) override;
  bool supports_encode_range() const override { return true; }
  void encode_range(int worker, std::size_t offset,
                    std::span<std::byte> out) override;
  // A view, not a copy: the reduced bytes stay valid until finish() (the
  // CodecRound contract), which decodes them.
  void absorb_reduced(const ByteBuffer& reduced) override {
    reduced_ = reduced;
  }
  void finish(std::span<float> out, RoundStats& stats) override;

 private:
  /// The held worker's gradient (throws for workers not held).
  std::span<const float> held_grad(int worker) const;

  const DenseCodec& codec_;
  std::span<const std::span<const float>> grads_;
  HeldWorkers held_;
  bool stage_done_ = false;
  std::span<const std::byte> reduced_;
};

class DenseCodec final : public SchemeCodec {
 public:
  explicit DenseCodec(const BaselineConfig& config) : config_(config) {
    GCS_CHECK(config.dimension > 0);
    GCS_CHECK(config.comm_precision == Precision::kFp32 ||
              config.comm_precision == Precision::kFp16);
    op_ = config.comm_precision == Precision::kFp16 ? comm::make_fp16_sum()
                                                    : comm::make_fp32_sum();
  }

  std::string name() const override {
    return "Baseline " + gcs::to_string(config_.comm_precision);
  }
  AggregationPath path() const override {
    return AggregationPath::kAllReduce;
  }
  int world_size() const override { return config_.world_size; }
  std::size_t dimension() const override { return config_.dimension; }

  std::unique_ptr<CodecRound> begin_round(
      std::span<const std::span<const float>> grads,
      std::uint64_t /*round*/) override {
    return std::make_unique<DenseRound>(*this, grads);
  }

  void reset() override {}

  SchemeCodecPtr remap_workers(
      std::span<const int> survivors) const override {
    check_survivor_set(survivors, config_.world_size);
    // Stateless across rounds: the shrunken codec is simply a fresh one.
    BaselineConfig shrunk = config_;
    shrunk.world_size = static_cast<int>(survivors.size());
    return std::make_unique<DenseCodec>(shrunk);
  }

  const BaselineConfig& config() const noexcept { return config_; }
  const comm::ReduceOp& op() const noexcept { return *op_; }

 private:
  BaselineConfig config_;
  std::unique_ptr<comm::ReduceOp> op_;
};

DenseRound::DenseRound(const DenseCodec& codec,
                       std::span<const std::span<const float>> grads)
    : codec_(codec),
      grads_(grads),
      held_(grads, codec.config().world_size, codec.config().dimension) {}

std::span<const float> DenseRound::held_grad(int worker) const {
  held_.require(worker, codec_);
  return grads_[static_cast<std::size_t>(worker)];
}

bool DenseRound::next_stage(WireStage& stage) {
  if (stage_done_) return false;
  stage_done_ = true;
  stage = WireStage{};
  stage.name = "values";
  stage.route = AggregationPath::kAllReduce;
  stage.algorithm = codec_.config().use_tree ? ReduceAlgorithm::kTree
                                             : ReduceAlgorithm::kRing;
  stage.op = &codec_.op();
  return true;
}

ByteBuffer DenseRound::encode(int worker) {
  ByteBuffer buf;
  encode_into(worker, buf);
  return buf;
}

void DenseRound::encode_into(int worker, ByteBuffer& out) {
  const auto grad = held_grad(worker);
  const std::size_t width =
      codec_.config().comm_precision == Precision::kFp32
          ? sizeof(float)
          : sizeof(std::uint16_t);
  out.resize(grad.size() * width);
  encode_range(worker, 0, out);
}

void DenseRound::encode_range(int worker, std::size_t offset,
                              std::span<std::byte> out) {
  const auto grad = held_grad(worker);
  if (codec_.config().comm_precision == Precision::kFp32) {
    GCS_CHECK(offset % sizeof(float) == 0 &&
              out.size() % sizeof(float) == 0);
    GCS_CHECK(offset + out.size() <= grad.size() * sizeof(float));
    std::memcpy(out.data(),
                reinterpret_cast<const std::byte*>(grad.data()) + offset,
                out.size());
  } else {
    GCS_CHECK(offset % 2 == 0 && out.size() % 2 == 0);
    const std::size_t first = offset / 2;
    const std::size_t n = out.size() / 2;
    GCS_CHECK(first + n <= grad.size());
    kernels::active().fp32_to_fp16(
        grad.data() + first, n,
        reinterpret_cast<std::uint16_t*>(out.data()));
  }
}

void DenseRound::finish(std::span<float> out, RoundStats& /*stats*/) {
  require_stage(!reduced_.empty(), codec_,
                "finish before the values were absorbed");
  const std::size_t d = codec_.config().dimension;
  if (codec_.config().comm_precision == Precision::kFp32) {
    GCS_CHECK(reduced_.size() == d * sizeof(float));
    std::memcpy(out.data(), reduced_.data(), d * sizeof(float));
  } else {
    GCS_CHECK(reduced_.size() == d * 2);
    kernels::active().fp16_to_fp32(
        reinterpret_cast<const std::uint16_t*>(reduced_.data()), d,
        out.data());
  }
}

}  // namespace

SchemeCodecPtr make_baseline_codec(const BaselineConfig& config) {
  return std::make_unique<DenseCodec>(config);
}

}  // namespace gcs::core
