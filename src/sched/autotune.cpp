#include "sched/autotune.h"

#include "common/check.h"
#include "core/factory.h"

namespace gcs::sched {
namespace {

/// BERT-large calibration: 0.130 s forward+backward for ~336M parameters.
constexpr double kComputeSecondsPerParam = 0.130 / 336e6;

}  // namespace

const std::vector<std::size_t>& autotune_chunk_grid() {
  static const std::vector<std::size_t> grid = {
      std::size_t{1} << 18, std::size_t{1} << 19, std::size_t{1} << 20,
      std::size_t{1} << 21, std::size_t{1} << 22, std::size_t{1} << 23,
      std::size_t{1} << 24, std::size_t{1} << 25,
  };
  return grid;
}

const std::vector<std::size_t>& autotune_bucket_grid() {
  static const std::vector<std::size_t> grid = {
      std::size_t{4} << 20,  std::size_t{8} << 20,  std::size_t{16} << 20,
      std::size_t{25} << 20, std::size_t{32} << 20, std::size_t{64} << 20,
      std::size_t{128} << 20,
  };
  return grid;
}

AutotuneChoice autotune_sizes(const sim::CostModel& cost,
                              const sim::WorkloadSpec& workload,
                              const core::SchemeSpec& scheme, int workers) {
  GCS_CHECK_MSG(workers >= 1, "autotune_sizes needs >= 1 encode workers");
  AutotuneChoice choice;
  choice.mono_total_s = cost.chunked_round(workload, scheme, 0).total();
  // Size-chunked sweep; monolithic (chunk_bytes = 0) is a legal winner —
  // pure-comm schemes only lose latency to chunking.
  choice.chunked_total_s = choice.mono_total_s;
  for (std::size_t bytes : autotune_chunk_grid()) {
    const double total = cost.chunked_round(workload, scheme, bytes).total();
    choice.sweep.push_back({bytes, total, false});
    if (total < choice.chunked_total_s) {
      choice.chunked_total_s = total;
      choice.chunk_bytes = bytes;
    }
  }
  // Layer-bucket sweep (backward-overlap charge).
  bool first = true;
  for (std::size_t bytes : autotune_bucket_grid()) {
    const sim::RoundTime t = cost.bucketed_round(workload, scheme, bytes,
                                                 workers,
                                                 scheme.backward_frac);
    choice.sweep.push_back({bytes, t.total(), true});
    if (first || t.total() < choice.bucketed_total_s) {
      choice.bucketed_total_s = t.total();
      choice.bucket_bytes = bytes;
      choice.buckets = t.chunks;
      first = false;
    }
  }
  return choice;
}

sim::WorkloadSpec workload_for_layout(const ModelLayout& layout,
                                      std::string name) {
  sim::WorkloadSpec spec;
  spec.name = std::move(name);
  spec.layout = layout;
  spec.fp32_compute_seconds =
      kComputeSecondsPerParam * static_cast<double>(layout.total_size());
  return spec;
}

}  // namespace gcs::sched
