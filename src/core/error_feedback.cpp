#include "core/error_feedback.h"

#include <algorithm>

#include "common/check.h"
#include "core/codec.h"
#include "kernels/kernels.h"

namespace gcs::core {

ErrorFeedback::ErrorFeedback(int world_size, std::size_t dimension,
                             bool enabled)
    : world_size_(world_size), dimension_(dimension), enabled_(enabled) {
  GCS_CHECK(world_size >= 1);
  if (enabled_) {
    memories_.resize(static_cast<std::size_t>(world_size));
    for (auto& m : memories_) m.assign(dimension, 0.0f);
  }
}

void ErrorFeedback::compensate(int worker, std::span<const float> grad,
                               std::span<float> y) const {
  GCS_CHECK(grad.size() == dimension_ && y.size() == dimension_);
  if (!enabled_) {
    std::copy(grad.begin(), grad.end(), y.begin());
    return;
  }
  const auto& m = memories_[static_cast<std::size_t>(worker)];
  kernels::active().add(grad.data(), m.data(), dimension_, y.data());
}

void ErrorFeedback::compensate_key_hist(int worker,
                                        std::span<const float> grad,
                                        std::span<float> y,
                                        std::uint32_t* hist) const {
  GCS_CHECK(grad.size() == dimension_ && y.size() == dimension_);
  const auto& backend = kernels::active();
  if (!enabled_) {
    std::copy(grad.begin(), grad.end(), y.begin());
    backend.key_hist(y.data(), dimension_, hist);
    return;
  }
  const auto& m = memories_[static_cast<std::size_t>(worker)];
  backend.add_key_hist(grad.data(), m.data(), dimension_, y.data(), hist);
}

std::span<float> ErrorFeedback::absorb_unsent(int worker,
                                              std::vector<float>& y) {
  GCS_CHECK(enabled_);
  GCS_CHECK(y.size() == dimension_);
  auto& m = memories_[static_cast<std::size_t>(worker)];
  m.swap(y);
  return {m.data(), m.size()};
}

std::span<float> ErrorFeedback::mutable_memory(int worker) {
  GCS_CHECK(enabled_);
  auto& m = memories_[static_cast<std::size_t>(worker)];
  return {m.data(), m.size()};
}

void ErrorFeedback::reset() {
  for (auto& m : memories_) std::fill(m.begin(), m.end(), 0.0f);
}

ErrorFeedback ErrorFeedback::remap(std::span<const int> survivors) const {
  check_survivor_set(survivors, world_size_);
  ErrorFeedback out(static_cast<int>(survivors.size()), dimension_,
                    enabled_);
  if (enabled_) {
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      out.memories_[i] =
          memories_[static_cast<std::size_t>(survivors[i])];
    }
  }
  return out;
}

std::span<const float> ErrorFeedback::memory(int worker) const {
  GCS_CHECK(enabled_);
  const auto& m = memories_[static_cast<std::size_t>(worker)];
  return {m.data(), m.size()};
}

}  // namespace gcs::core
