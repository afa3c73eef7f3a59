#include "measure/calibrator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace gcs::measure {
namespace {

/// Solves A x = b (A symmetric positive definite after ridge) by Gaussian
/// elimination with partial pivoting. Dimensions are tiny (3 + #schemes).
std::vector<double> solve_linear(std::vector<std::vector<double>> a,
                                 std::vector<double> b) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    GCS_CHECK_MSG(std::abs(a[col][col]) > 0.0,
                  "Calibrator: singular normal equations (degenerate "
                  "feature column "
                      << col << ")");
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r][col] / a[col][col];
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= a[ri][c] * x[c];
    x[ri] = acc / a[ri][ri];
  }
  return x;
}

/// Minimises |A w - t|^2 subject to w >= 0, given the normal equations
/// Q = A'A and c = A't: Lawson and Hanson's active-set method. Every
/// coefficient starts at zero (the active set). The one whose gradient
/// c - Q w most favours growth moves to the passive set, which is then
/// re-solved unconstrained; a solve that drives a passive coefficient
/// non-positive steps only as far as the first one reaching zero and
/// returns it to the active set. Dimensions are tiny (3 + #schemes).
std::vector<double> solve_nonnegative(
    const std::vector<std::vector<double>>& q, const std::vector<double>& c) {
  const std::size_t n = c.size();
  double tol = 0.0;
  for (const double v : c) tol = std::max(tol, std::abs(v));
  tol *= 1e-12;
  std::vector<double> w(n, 0.0);
  std::vector<bool> passive(n, false);
  // The unconstrained solution over the passive set (active ones are 0).
  const auto solve_passive = [&] {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < n; ++i) {
      if (passive[i]) idx.push_back(i);
    }
    std::vector<std::vector<double>> sub_q(
        idx.size(), std::vector<double>(idx.size(), 0.0));
    std::vector<double> sub_c(idx.size(), 0.0);
    for (std::size_t r = 0; r < idx.size(); ++r) {
      sub_c[r] = c[idx[r]];
      for (std::size_t k = 0; k < idx.size(); ++k) {
        sub_q[r][k] = q[idx[r]][idx[k]];
      }
    }
    const auto sub = solve_linear(std::move(sub_q), std::move(sub_c));
    std::vector<double> z(n, 0.0);
    for (std::size_t r = 0; r < idx.size(); ++r) z[idx[r]] = sub[r];
    return z;
  };
  // Each outer pass adds one coefficient; the cap turns a numerically
  // cycling pass into the best feasible fit found so far.
  for (std::size_t pass = 0; pass < 3 * n; ++pass) {
    std::size_t best = n;
    double best_gradient = tol;
    for (std::size_t i = 0; i < n; ++i) {
      if (passive[i]) continue;
      double g = c[i];
      for (std::size_t k = 0; k < n; ++k) g -= q[i][k] * w[k];
      if (g > best_gradient) {
        best = i;
        best_gradient = g;
      }
    }
    if (best == n) break;  // KKT: no active coefficient wants to grow
    passive[best] = true;
    for (;;) {
      const auto z = solve_passive();
      std::size_t blocking = n;
      double step = 1.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (!passive[i] || z[i] > 0.0) continue;
        const double s = w[i] / (w[i] - z[i]);
        if (blocking == n || s < step) {
          blocking = i;
          step = s;
        }
      }
      if (blocking == n) {
        w = z;
        break;
      }
      for (std::size_t i = 0; i < n; ++i) w[i] += step * (z[i] - w[i]);
      w[blocking] = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (passive[i] && w[i] <= 0.0) {
          passive[i] = false;
          w[i] = 0.0;
        }
      }
    }
  }
  return w;
}

}  // namespace

ScenarioSample sample_from_trace(const RoundTrace& trace,
                                 const std::string& scheme_kind,
                                 std::size_t dimension,
                                 std::size_t stages) {
  ScenarioSample s;
  s.label = trace.scheme;
  s.scheme_kind = scheme_kind;
  s.messages = static_cast<double>(trace.phase_count(Phase::kSend));
  s.wire_bytes = static_cast<double>(trace.phase_bytes(Phase::kSend));
  s.coordinates = static_cast<double>(dimension) *
                  static_cast<double>(std::max<std::size_t>(stages, 1));
  s.measured_round_s = trace.round_s();
  s.measured_encode_s = trace.phase_total_s(Phase::kEncode);
  s.measured_comm_s = trace.phase_total_s(Phase::kSend) +
                      trace.phase_total_s(Phase::kRecv);
  s.measured_decode_s = trace.phase_total_s(Phase::kReduce) +
                        trace.phase_total_s(Phase::kDecode);
  return s;
}

double CalibratedCostModel::compute_per_coord(
    const std::string& scheme_kind) const {
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    if (kinds_[i] == scheme_kind) return gamma_s_per_coord_[i];
  }
  return 0.0;
}

double CalibratedCostModel::charged_round_s(
    const ScenarioSample& sample) const {
  const double t = fixed_s_ + alpha_s_ * sample.messages +
                   beta_s_per_byte_ * sample.wire_bytes +
                   compute_per_coord(sample.scheme_kind) *
                       sample.coordinates;
  return std::max(t, 0.0);
}

double CalibratedCostModel::mean_abs_error(
    std::span<const ScenarioSample> samples) const {
  GCS_CHECK(!samples.empty());
  double total = 0.0;
  for (const auto& s : samples) {
    total += std::abs(charged_round_s(s) - s.measured_round_s);
  }
  return total / static_cast<double>(samples.size());
}

void Calibrator::add(ScenarioSample sample) {
  samples_.push_back(std::move(sample));
}

CalibratedCostModel Calibrator::fit() const {
  CalibratedCostModel model;
  for (const auto& s : samples_) {
    if (std::find(model.kinds_.begin(), model.kinds_.end(),
                  s.scheme_kind) == model.kinds_.end()) {
      model.kinds_.push_back(s.scheme_kind);
    }
  }
  const std::size_t params = 3 + model.kinds_.size();
  if (samples_.size() < params) {
    // A thin sweep is runtime data, not a programming error: callers may
    // catch this and widen the sweep.
    throw Error("Calibrator: " + std::to_string(samples_.size()) +
                " sample(s) cannot fit " + std::to_string(params) +
                " parameters — widen the sweep");
  }

  // Feature matrix row: [1, messages, wire_bytes, coords * 1{kind==k}].
  // Columns are scaled to unit maximum before forming the normal
  // equations (raw magnitudes span ~9 decades) and unscaled after.
  std::vector<double> scale(params, 0.0);
  auto features = [&](const ScenarioSample& s) {
    std::vector<double> x(params, 0.0);
    x[0] = 1.0;
    x[1] = s.messages;
    x[2] = s.wire_bytes;
    for (std::size_t k = 0; k < model.kinds_.size(); ++k) {
      if (model.kinds_[k] == s.scheme_kind) x[3 + k] = s.coordinates;
    }
    return x;
  };
  for (const auto& s : samples_) {
    const auto x = features(s);
    for (std::size_t c = 0; c < params; ++c) {
      scale[c] = std::max(scale[c], std::abs(x[c]));
    }
  }
  for (auto& v : scale) {
    if (v == 0.0) v = 1.0;  // all-zero column: ridge pins its weight to 0
  }

  std::vector<std::vector<double>> ata(params,
                                       std::vector<double>(params, 0.0));
  std::vector<double> atb(params, 0.0);
  for (const auto& s : samples_) {
    auto x = features(s);
    for (std::size_t c = 0; c < params; ++c) x[c] /= scale[c];
    for (std::size_t r = 0; r < params; ++r) {
      for (std::size_t c = 0; c < params; ++c) ata[r][c] += x[r] * x[c];
      atb[r] += x[r] * s.measured_round_s;
    }
  }
  // Ridge: scaled columns make a uniform lambda meaningful; it also keeps
  // the system nonsingular when a sweep leaves a feature collinear.
  const double lambda = 1e-9 * static_cast<double>(samples_.size());
  for (std::size_t c = 0; c < params; ++c) ata[c][c] += lambda;

  // No cost is negative: a round cannot get faster as it sends more
  // messages, bytes or coordinates, so a negative coefficient would be
  // noise fitted, not structure.
  auto w = solve_nonnegative(ata, atb);
  for (std::size_t c = 0; c < params; ++c) w[c] /= scale[c];

  model.fixed_s_ = w[0];
  model.alpha_s_ = w[1];
  model.beta_s_per_byte_ = w[2];
  model.gamma_s_per_coord_.assign(w.begin() + 3, w.end());
  return model;
}

}  // namespace gcs::measure
