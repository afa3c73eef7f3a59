#include "comm/reduce_op.h"

#include <algorithm>
#include <mutex>

#include "common/check.h"
#include "kernels/kernels.h"

namespace gcs::comm {
namespace {

class Fp32Sum final : public ReduceOp {
 public:
  void accumulate(std::span<std::byte> acc,
                  std::span<const std::byte> in) const override {
    GCS_CHECK(acc.size() == in.size() && acc.size() % sizeof(float) == 0);
    auto* a = reinterpret_cast<float*>(acc.data());
    const auto* b = reinterpret_cast<const float*>(in.data());
    kernels::active().add(a, b, acc.size() / sizeof(float), a);
  }
  std::size_t granularity() const noexcept override { return sizeof(float); }
  std::string name() const override { return "fp32_sum"; }
};

class Fp16Sum final : public ReduceOp {
 public:
  void accumulate(std::span<std::byte> acc,
                  std::span<const std::byte> in) const override {
    GCS_CHECK(acc.size() == in.size() && acc.size() % 2 == 0);
    auto* a = reinterpret_cast<std::uint16_t*>(acc.data());
    const auto* b = reinterpret_cast<const std::uint16_t*>(in.data());
    // Add in FP32, round back to FP16 (GPU accumulator semantics): this
    // per-hop rounding is exactly the FP16 baseline's aggregation error.
    kernels::active().fp16_sum(a, b, acc.size() / 2);
  }
  std::size_t granularity() const noexcept override { return 2; }
  std::string name() const override { return "fp16_sum"; }
};

class Fp32MinMax final : public ReduceOp {
 public:
  explicit Fp32MinMax(bool is_min) : is_min_(is_min) {}

  void accumulate(std::span<std::byte> acc,
                  std::span<const std::byte> in) const override {
    GCS_CHECK(acc.size() == in.size() && acc.size() % sizeof(float) == 0);
    auto* a = reinterpret_cast<float*>(acc.data());
    const auto* b = reinterpret_cast<const float*>(in.data());
    const std::size_t n = acc.size() / sizeof(float);
    if (is_min_) {
      for (std::size_t i = 0; i < n; ++i) a[i] = std::min(a[i], b[i]);
    } else {
      for (std::size_t i = 0; i < n; ++i) a[i] = std::max(a[i], b[i]);
    }
  }
  std::size_t granularity() const noexcept override { return sizeof(float); }
  std::string name() const override { return is_min_ ? "fp32_min" : "fp32_max"; }

 private:
  bool is_min_;
};

class SatIntSum final : public ReduceOp {
 public:
  SatIntSum(unsigned bits, SatStats* stats) : bits_(bits), stats_(stats) {
    GCS_CHECK_MSG(bits == 2 || bits == 4 || bits == 8,
                  "saturating lanes require q in {2,4,8}, got " << bits);
  }

  void accumulate(std::span<std::byte> acc,
                  std::span<const std::byte> in) const override {
    GCS_CHECK(acc.size() == in.size());
    SatStats local;
    local.additions = acc.size() * (8 / bits_);
    local.clips = kernels::active().sat_add_packed(
        reinterpret_cast<std::uint8_t*>(acc.data()),
        reinterpret_cast<const std::uint8_t*>(in.data()), acc.size(), bits_);
    if (stats_ != nullptr) {
      std::lock_guard lock(mu_);
      stats_->merge(local);
    }
  }
  // A byte holds exactly 8/bits whole lanes for bits in {2,4,8}.
  std::size_t granularity() const noexcept override { return 1; }
  std::string name() const override {
    return "sat_int" + std::to_string(bits_);
  }

 private:
  unsigned bits_;
  SatStats* stats_;
  mutable std::mutex mu_;
};

}  // namespace

std::unique_ptr<ReduceOp> make_fp32_sum() { return std::make_unique<Fp32Sum>(); }
std::unique_ptr<ReduceOp> make_fp16_sum() { return std::make_unique<Fp16Sum>(); }
std::unique_ptr<ReduceOp> make_fp32_min() {
  return std::make_unique<Fp32MinMax>(true);
}
std::unique_ptr<ReduceOp> make_fp32_max() {
  return std::make_unique<Fp32MinMax>(false);
}
std::unique_ptr<ReduceOp> make_sat_int(unsigned bits, SatStats* stats) {
  return std::make_unique<SatIntSum>(bits, stats);
}

}  // namespace gcs::comm
