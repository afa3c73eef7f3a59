// Uniform stochastic quantization (the THC front end).
//
// Values in [lo, hi] are mapped onto 2^q equally spaced levels; each value
// rounds stochastically to one of its two neighbouring levels with
// probability proportional to proximity, making the quantizer unbiased
// (E[dequant(quant(x))] == x for x inside the range). All workers must use
// the same [lo, hi] per chunk for quantized aggregation to be meaningful
// ("homomorphic"); the range consensus is the compressor's job.
#pragma once

#include <cstdint>
#include <span>

namespace gcs {

/// Closed quantization range.
struct QuantRange {
  float lo = 0.0f;
  float hi = 0.0f;

  float width() const noexcept { return hi - lo; }
};

/// Min/max of a span (QuantRange{0,0} for empty input).
QuantRange compute_range(std::span<const float> x) noexcept;

}  // namespace gcs
