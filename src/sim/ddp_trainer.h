// The end-to-end DDP training simulator that produces TTA curves.
//
// Binds everything together: per-round, each of the n workers draws its
// own minibatch and computes a real gradient on the shared model; the
// configured pipeline aggregates the gradients (values computed for
// real, bit-identical to the fabric collectives); the optimizer applies
// the mean; and the clock advances by the cost model's paper-scale round
// time. Held-out evaluation runs every `eval_every` rounds and feeds both
// the TTA curve (after the paper's rolling average) and early stopping.
//
// This is the procedure behind Figures 1-3: run every scheme to
// convergence, plot metric against simulated wall-clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cost_model.h"
#include "sim/workload.h"
#include "train/dataset.h"
#include "train/schedule.h"

namespace gcs::sim {

struct DdpConfig {
  /// Scheme spec (core::make_pipeline grammar). Its pipeline knobs
  /// (chunk=, buckets=layer, bucket=, workers=, backward_frac=, autotune)
  /// select the charged schedule; see CostModel::round_for_spec.
  std::string scheme;
  int world_size = 4;
  std::size_t batch_per_worker = 32;
  /// Hidden-layer widths of the proxy MLP (input/output come from data).
  std::vector<std::size_t> hidden = {128};
  double learning_rate = 0.5;
  double momentum = 0.9;
  /// LR decays by `lr_gamma` every `lr_decay_every` rounds (0 = constant).
  double lr_gamma = 0.5;
  std::size_t lr_decay_every = 0;
  int max_rounds = 4000;
  int eval_every = 20;
  /// Rolling-average window over *evaluations* (the paper smooths TTA
  /// curves over a fixed number of rounds; we express it in eval points).
  std::size_t rolling_window = 8;
  /// Early stopping: evaluations without improvement before convergence.
  int patience = 25;
  double min_delta = 1e-4;
  train::MetricDirection direction =
      train::MetricDirection::kHigherIsBetter;
  /// Keep training this many rounds past convergence (the paper stops "a
  /// given number of epochs after convergence", so curves extend past it).
  int post_converge_rounds = 200;
  std::uint64_t seed = 42;
};

/// One point of a TTA curve.
struct TtaPoint {
  int round = 0;
  double time_s = 0.0;   ///< simulated wall-clock (paper scale)
  double metric = 0.0;   ///< rolling-averaged held-out metric
  double raw_metric = 0.0;
};

struct DdpResult {
  std::string scheme;
  std::vector<TtaPoint> curve;
  int rounds_run = 0;
  bool converged = false;
  double best_metric = 0.0;
  double final_metric = 0.0;          ///< rolling metric at the end
  double simulated_seconds = 0.0;     ///< total training time charged
  double rounds_per_second = 0.0;     ///< throughput under the cost model
  double overlap_saved_s_per_round = 0.0;  ///< comm/compute overlap won
  std::size_t pipeline_chunks = 1;    ///< chunks per round (1 = monolithic)
  double mean_bits_per_coordinate = 0.0;
  double mean_vnmse = 0.0;            ///< diagnostic: per-round vNMSE
};

/// Trains the proxy task under the given scheme. `workload` and `cost`
/// define the paper-scale timing; `data` defines the proxy task (its
/// metric kind: perplexity if direction == kLowerIsBetter, else accuracy).
DdpResult train_ddp(const train::Dataset& data, const DdpConfig& config,
                    const WorkloadSpec& workload, const CostModel& cost);

}  // namespace gcs::sim
