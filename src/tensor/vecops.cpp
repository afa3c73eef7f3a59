#include "tensor/vecops.h"

#include <cmath>

namespace gcs {

void axpy(float alpha, std::span<const float> x, std::span<float> y) noexcept {
  const std::size_t n = x.size() < y.size() ? x.size() : y.size();
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(std::span<float> x, float alpha) noexcept {
  for (float& v : x) v *= alpha;
}

double dot(std::span<const float> a, std::span<const float> b) noexcept {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

double squared_norm(std::span<const float> x) noexcept {
  double acc = 0.0;
  for (float v : x) acc += static_cast<double>(v) * static_cast<double>(v);
  return acc;
}

double norm(std::span<const float> x) noexcept {
  return std::sqrt(squared_norm(x));
}

void add(std::span<const float> a, std::span<const float> b,
         std::span<float> out) noexcept {
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void sub(std::span<const float> a, std::span<const float> b,
         std::span<float> out) noexcept {
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

}  // namespace gcs
