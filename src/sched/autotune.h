// Bucket/chunk-size autotuning against the calibrated cost model.
//
// The latency-vs-overlap trade (every extra chunk pays the collective's
// per-step latency again; every coarser chunk hides less compute) has a
// per-scheme, per-workload optimum that the hand-picked sizes in the
// benches only approximate. This sweeps a small geometric grid of
// bucket/chunk sizes through sim::CostModel and picks the argmin charged
// round time — the numbers `bench/overlap_pipeline` reports into
// BENCH_overlap_pipeline.json and the factory's `autotune` knob applies.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/cost_model.h"
#include "sim/workload.h"
#include "tensor/layout.h"

namespace gcs::sched {

/// One sweep sample (for the bench's sweep artefact).
struct AutotunePoint {
  std::size_t bytes = 0;     ///< bucket or chunk size swept
  double total_s = 0.0;      ///< charged round time at that size
  bool bucketed = false;     ///< true = bucket sweep, false = chunk sweep
};

struct AutotuneChoice {
  std::size_t chunk_bytes = 0;    ///< best size-chunked split (0 = mono)
  std::size_t bucket_bytes = 0;   ///< best layer-bucket cap
  double mono_total_s = 0.0;      ///< monolithic charge
  double chunked_total_s = 0.0;   ///< charge at chunk_bytes
  double bucketed_total_s = 0.0;  ///< backward-overlap charge at bucket_bytes
  std::size_t buckets = 0;        ///< bucket count at bucket_bytes
  std::vector<AutotunePoint> sweep;  ///< every sample, in sweep order
};

/// The default sweep grids (exposed for tests and the bench tables).
const std::vector<std::size_t>& autotune_chunk_grid();
const std::vector<std::size_t>& autotune_bucket_grid();

/// Sweeps both grids for `scheme` (core::parse_scheme) on `workload` and
/// returns the argmin choices. `workers` is the encode-pool width of the
/// bucketed charge, which runs at the scheme's backward_frac. Every size
/// is charged explicitly: the sweep never reads a spec's own knobs.
AutotuneChoice autotune_sizes(const sim::CostModel& cost,
                              const sim::WorkloadSpec& workload,
                              const core::SchemeSpec& scheme, int workers);

/// A WorkloadSpec standing in for `layout` when no calibrated workload
/// exists (the factory's `autotune` knob): compute seconds extrapolated
/// from the parameter count at the BERT-large calibration rate.
sim::WorkloadSpec workload_for_layout(const ModelLayout& layout,
                                      std::string name);

}  // namespace gcs::sched
