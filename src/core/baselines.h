// Uncompressed baselines: FP32 and the paper's stronger FP16 baseline.
//
// "Baseline FP32" all-reduces raw binary32 gradients (b = 32). "Baseline
// FP16" rounds to binary16 before communication and reduces hop-by-hop in
// FP16 (b = 16) — half the traffic, negligible accuracy loss, and therefore
// the bar every compression scheme must beat (Section 2.2 of the paper).
#pragma once

#include <cstddef>

#include "core/codec.h"
#include "numeric/precision.h"

namespace gcs::core {

struct BaselineConfig {
  std::size_t dimension = 0;
  int world_size = 4;
  /// Communication precision: kFp32 or kFp16.
  Precision comm_precision = Precision::kFp16;
  /// Use the binomial tree instead of the ring (ablation knob).
  bool use_tree = false;
};

/// The baseline's codec (one dense all-reduce stage; ring or tree).
SchemeCodecPtr make_baseline_codec(const BaselineConfig& config);

}  // namespace gcs::core
