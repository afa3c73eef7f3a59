// Dense vector kernels shared across the suite (BLAS-1 style).
//
// These are the hot loops of the compressors and the training substrate;
// they are written as plain, auto-vectorizable loops over spans (the
// environment has no GPU, and the simulated time model — not CPU wall time
// — is what reproduces the paper's throughput numbers). PowerSGD's matrix
// products are not here: they are the kernel layer's matmul panels
// (kernels/kernels.h), whose fold order is pinned across backends.
#pragma once

#include <cstddef>
#include <span>

namespace gcs {

/// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y) noexcept;

/// x *= alpha
void scale(std::span<float> x, float alpha) noexcept;

/// Dot product (FP64 accumulation for stability).
double dot(std::span<const float> a, std::span<const float> b) noexcept;

/// Squared L2 norm (FP64 accumulation).
double squared_norm(std::span<const float> x) noexcept;

/// L2 norm.
double norm(std::span<const float> x) noexcept;

/// Element-wise a + b -> out (used by reference aggregators).
void add(std::span<const float> a, std::span<const float> b,
         std::span<float> out) noexcept;

/// out = a - b
void sub(std::span<const float> a, std::span<const float> b,
         std::span<float> out) noexcept;

}  // namespace gcs
