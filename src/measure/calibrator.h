// Fitting the cost model to measured wall-clock (DESIGN.md "Measurement
// layer").
//
// sim/cost_model.h charges the paper's testbed; the transports this repo
// actually executes charge nothing — they just take time. The Calibrator
// closes that gap with the cost model's own structure: a round is
//
//   time ≈ fixed + alpha * messages + beta * wire_bytes
//                + gamma_scheme * coordinates
//
// where `messages` and `wire_bytes` are the round's deterministic
// transport plan (the same per-chunk hop counts and metered volumes the
// rest of the repo asserts on), `coordinates` is the scheme's per-round
// encode/decode workload, and (fixed, alpha, beta, gamma_*) are fit by
// non-negative least squares over a set of traced rounds. alpha and beta
// are exactly the alpha-beta link parameters netsim assumes; gamma_scheme
// is the per-scheme encode/decode coefficient the paper's Table 6 reasons
// about.
//
// The produced CalibratedCostModel predicts wall-clock for any scenario
// with known plan features, so its charges can be diffed against measured
// rounds — and against the uncalibrated CostModel's testbed charges,
// which is the simulator-vs-system comparison the driver's
// BENCH_measured_vs_charged.json tabulates. tests/test_measure.cpp
// asserts the fit reduces mean absolute error vs the uncalibrated model
// on a multi-scheme sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "measure/trace.h"

namespace gcs::measure {

/// One traced scenario: deterministic plan features + measured times.
struct ScenarioSample {
  std::string label;        ///< row label (spec + knobs) for reports
  std::string scheme_kind;  ///< spec kind ("topkc", "thc", ...) — selects
                            ///< the per-scheme compute coefficient
  // --- plan features (deterministic given spec/dim/world) -------------
  double messages = 0.0;    ///< transport sends in the round
  double wire_bytes = 0.0;  ///< payload bytes sent in the round
  double coordinates = 0.0; ///< per-round encode/decode coordinate work
  // --- measured wall-clock (seconds) ----------------------------------
  double measured_round_s = 0.0;
  double measured_encode_s = 0.0;  ///< summed encode span work
  double measured_comm_s = 0.0;    ///< summed send+recv span work
  double measured_decode_s = 0.0;  ///< reduce + finish span work
};

/// Extracts a sample from one traced round. `coordinates` is the codec
/// dimension times the number of wire stages (each stage walks the
/// coordinate space once on the encode side); the per-scheme coefficient
/// absorbs the scheme's constant factor.
ScenarioSample sample_from_trace(const RoundTrace& trace,
                                 const std::string& scheme_kind,
                                 std::size_t dimension,
                                 std::size_t stages);

/// The fitted alpha-beta + per-scheme coefficients.
class CalibratedCostModel {
 public:
  /// Predicted wall-clock for a scenario's plan features (clamped >= 0).
  /// A scheme kind unseen during the fit contributes no compute term.
  double charged_round_s(const ScenarioSample& sample) const;

  /// Mean absolute |predicted - measured| over `samples`.
  double mean_abs_error(std::span<const ScenarioSample> samples) const;

  double fixed_s() const noexcept { return fixed_s_; }
  double alpha_s() const noexcept { return alpha_s_; }              ///< per message
  double beta_s_per_byte() const noexcept { return beta_s_per_byte_; }
  /// Per-coordinate compute coefficient for one scheme kind (0 = unseen).
  double compute_per_coord(const std::string& scheme_kind) const;
  const std::vector<std::string>& scheme_kinds() const noexcept {
    return kinds_;
  }

 private:
  friend class Calibrator;
  double fixed_s_ = 0.0;
  double alpha_s_ = 0.0;
  double beta_s_per_byte_ = 0.0;
  std::vector<std::string> kinds_;
  std::vector<double> gamma_s_per_coord_;  ///< parallel to kinds_
};

/// Accumulates traced scenarios and fits the model.
class Calibrator {
 public:
  void add(ScenarioSample sample);

  std::size_t size() const noexcept { return samples_.size(); }
  const std::vector<ScenarioSample>& samples() const noexcept {
    return samples_;
  }

  /// Ridge-regularized least squares over the accumulated samples,
  /// constrained to non-negative coefficients (fixed, alpha, beta and
  /// every gamma are >= 0). Throws gcs::Error with fewer samples than fitted parameters
  /// (3 + number of distinct scheme kinds).
  CalibratedCostModel fit() const;

 private:
  std::vector<ScenarioSample> samples_;
};

}  // namespace gcs::measure
