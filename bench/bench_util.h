// Shared helpers for the table/figure reproduction benches.
//
// Every bench prints (a) the paper's reported numbers and (b) this
// reproduction's numbers side by side, so EXPERIMENTS.md rows can be read
// straight off the output. The `--csv` flag additionally dumps
// machine-readable curves/rows next to the binary's working directory.
//
// Alongside the human-readable tables, each bench emits a machine-readable
// BENCH_<name>.json (BenchJson below): print_header names the artefact,
// run_tta_suite records the per-scheme summaries into it automatically,
// and table benches can add their own rows — the files are how the perf
// trajectory is tracked across PRs.
#pragma once

#include <cctype>
#include <cmath>
#include <iomanip>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/table.h"
#include "core/synthetic_grad.h"
#include "sim/cost_model.h"
#include "sim/ddp_trainer.h"
#include "sim/tta.h"
#include "sim/workload.h"
#include "tensor/layout.h"
#include "train/dataset.h"

namespace gcs::bench {

/// Machine-readable metric sink: an ordered list of labelled rows, each a
/// flat map of metric name -> number or string. write() renders
/// BENCH_<name>.json into the working directory (or `dir`).
class BenchJson {
 public:
  explicit BenchJson(std::string name = "bench") : name_(std::move(name)) {}

  void reset(std::string name) {
    name_ = std::move(name);
    rows_.clear();
  }

  void set(const std::string& row, const std::string& key, double value) {
    if (!std::isfinite(value)) {
      // JSON has no NaN/Inf literal; null keeps the file parseable.
      set_raw(row, key, "null");
      return;
    }
    std::ostringstream os;
    os << std::setprecision(12) << value;
    set_raw(row, key, os.str());
  }
  void set(const std::string& row, const std::string& key,
           const std::string& value) {
    std::string quoted = "\"";
    quoted += json::escape(value);
    quoted += '"';
    set_raw(row, key, std::move(quoted));
  }

  const std::string& name() const noexcept { return name_; }

  std::string to_string() const {
    std::ostringstream os;
    os << "{\n  \"bench\": \"" << json::escape(name_) << "\",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << "    {\"label\": \""
         << json::escape(rows_[i].first) << "\"";
      for (const auto& [key, value] : rows_[i].second) {
        os << ", \"" << json::escape(key) << "\": " << value;
      }
      os << "}";
    }
    os << "\n  ]\n}\n";
    return os.str();
  }

  /// Writes BENCH_<name>.json; reports the location on stdout.
  void write(const std::string& dir = ".") const {
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "warning: cannot write " << path << '\n';
      return;
    }
    out << to_string();
    std::cout << "(json written to " << path << ")\n";
  }

 private:
  void set_raw(const std::string& row, const std::string& key,
               std::string value) {
    for (auto& r : rows_) {
      if (r.first == row) {
        for (auto& kv : r.second) {
          if (kv.first == key) {
            kv.second = std::move(value);
            return;
          }
        }
        r.second.emplace_back(key, std::move(value));
        return;
      }
    }
    rows_.emplace_back(row,
                       std::vector<std::pair<std::string, std::string>>{
                           {key, std::move(value)}});
  }

  std::string name_;
  std::vector<
      std::pair<std::string, std::vector<std::pair<std::string, std::string>>>>
      rows_;
};

/// The current bench's JSON sink; print_header names it after the
/// artefact.
inline BenchJson& bench_json() {
  static BenchJson json;
  return json;
}

/// "Figure 1" -> "figure_1" (file-name-safe artefact slug).
inline std::string artefact_slug(const std::string& artefact) {
  std::string slug;
  for (char c : artefact) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      slug.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug.empty() ? "bench" : slug;
}


/// Synthetic gradient source mimicking BERT-large gradient structure at a
/// tractable dimension (used by the vNMSE tables; vNMSE is intensive in d,
/// so measuring at 2^20 coordinates stands in for 345M).
inline core::SyntheticGradients bert_like_gradients(int world_size = 4) {
  core::SyntheticGradConfig config;
  config.layout = make_transformer_like_layout(std::size_t{1} << 20);
  config.world_size = world_size;
  // Strong locality (AR(1) correlation length ~ 100 coordinates) and a
  // heavy magnitude tail: the regime where the paper's BERT vNMSE values
  // live (top ~2% of coordinates holding most of the energy).
  config.locality = 0.999;
  config.tail_sigma = 1.2;
  config.layer_sigma = 1.0;
  config.worker_correlation = 0.8;
  config.signal_smoothness = 0.97;
  return core::SyntheticGradients(config);
}

/// The two proxy training tasks (see train/dataset.h for the substitution
/// rationale).
inline train::MarkovLmDataset lm_proxy_task() {
  train::MarkovLmDataset::Config config;
  config.vocab = 32;
  config.concentration = 0.25;
  config.eval_samples = 1024;
  return train::MarkovLmDataset(config);
}

inline train::GaussianMixtureDataset classifier_proxy_task() {
  train::GaussianMixtureDataset::Config config;
  config.features = 32;
  config.classes = 8;
  config.separation = 2.5;
  config.eval_samples = 1024;
  return train::GaussianMixtureDataset(config);
}

/// TTA run configuration for the LM proxy, timed as BERT-large.
inline sim::DdpConfig lm_run_config(const std::string& scheme) {
  sim::DdpConfig config;
  config.scheme = scheme;
  config.world_size = 4;
  config.batch_per_worker = 16;
  config.hidden = {64};
  config.learning_rate = 0.25;
  config.max_rounds = 4000;
  config.eval_every = 25;
  config.rolling_window = 6;
  // Generous patience: sparse schemes plateau while error feedback
  // catches up, and declaring convergence inside such a plateau would
  // make their curves look artificially bad.
  config.patience = 30;
  config.min_delta = 1e-3;
  config.direction = train::MetricDirection::kLowerIsBetter;
  config.post_converge_rounds = 200;
  return config;
}

/// TTA run configuration for the classifier proxy, timed as VGG19.
inline sim::DdpConfig classifier_run_config(const std::string& scheme) {
  sim::DdpConfig config;
  config.scheme = scheme;
  config.world_size = 4;
  config.batch_per_worker = 16;
  config.hidden = {64};
  config.learning_rate = 0.1;
  config.max_rounds = 5000;
  config.eval_every = 25;
  config.rolling_window = 6;
  config.patience = 30;
  config.min_delta = 1e-3;
  config.direction = train::MetricDirection::kHigherIsBetter;
  config.post_converge_rounds = 200;
  return config;
}

/// Records an AsciiTable into the bench JSON sink (one JSON row per table
/// row, keyed by the header; numeric cells stay numbers) and writes
/// BENCH_<artefact>.json. Call after printing the table.
inline void write_table_json(const AsciiTable& table) {
  auto& json = bench_json();
  const auto& header = table.header();
  std::size_t index = 0;
  for (const auto& row : table.rows()) {
    std::string label = "row" + std::to_string(index++);
    if (!row.empty()) {
      label = row[0];
      // Disambiguate repeated first-column labels ("BERT" appears once per
      // scheme) by appending the second column when present.
      if (row.size() > 1) label += " | " + row[1];
    }
    for (std::size_t c = 0; c < row.size() && c < header.size(); ++c) {
      char* end = nullptr;
      const double v = std::strtod(row[c].c_str(), &end);
      if (end != row[c].c_str() && *end == '\0') {
        json.set(label, header[c], v);
      } else {
        json.set(label, header[c], row[c]);
      }
    }
  }
  json.write();
}

/// Human-readable label for a compressor spec ("topkc:b=2" -> "TopKC b=2").
inline std::string pretty_label(const std::string& spec,
                                const std::string& compressor_name) {
  // The compressor's own name already encodes THC / PowerSGD parameters.
  if (compressor_name.rfind("THC", 0) == 0 ||
      compressor_name.rfind("PowerSGD", 0) == 0 ||
      compressor_name.rfind("Baseline", 0) == 0) {
    return compressor_name;
  }
  const auto colon = spec.find(':');
  if (colon == std::string::npos) return compressor_name;
  std::string params = spec.substr(colon + 1);
  for (auto& c : params) {
    if (c == ':') c = ' ';
  }
  return compressor_name + " " + params;
}

/// Prints the standard bench header and (re)opens the JSON sink under the
/// artefact's slug.
inline void print_header(const std::string& artefact,
                         const std::string& description) {
  std::cout << "==================================================\n"
            << artefact << " — " << description << '\n'
            << "==================================================\n";
  bench_json().reset(artefact_slug(artefact));
  bench_json().set("meta", "description", description);
}

/// Writes `content` to <csv_dir>/<name> unless `csv_dir` (the bench's
/// --csv=<dir> flag) is empty; reports the location.
inline void maybe_write_csv(const std::string& csv_dir,
                            const std::string& name,
                            const std::string& content) {
  if (csv_dir.empty()) return;
  const std::string path = csv_dir + "/" + name;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  out << content;
  std::cout << "(csv written to " << path << ")\n";
}

/// Runs the TTA experiment for a list of schemes on one task and prints
/// the curve table, throughput, convergence and utility-vs-FP16 summary.
/// The FP16 baseline must be the first entry.
inline std::vector<sim::DdpResult> run_tta_suite(
    const train::Dataset& data, const std::vector<std::string>& schemes,
    const sim::WorkloadSpec& workload,
    const sim::DdpConfig& (*unused)(void) = nullptr,
    bool lower_is_better = false) {
  (void)unused;
  const sim::CostModel cost;
  std::vector<sim::DdpResult> results;
  for (const auto& scheme : schemes) {
    sim::DdpConfig config = lower_is_better
                                ? lm_run_config(scheme)
                                : classifier_run_config(scheme);
    results.push_back(sim::train_ddp(data, config, workload, cost));
    results.back().scheme = pretty_label(scheme, results.back().scheme);
    const auto& r = results.back();
    std::cout << "  ran " << r.scheme << ": " << r.rounds_run
              << " rounds, " << format_sig(r.rounds_per_second, 3)
              << " rounds/s, b=" << format_sig(r.mean_bits_per_coordinate, 3)
              << ", final=" << format_sig(r.final_metric, 4)
              << (r.converged ? " (converged)" : " (round-capped)") << '\n';
    const std::string row = workload.name + " " + r.scheme;
    auto& json = bench_json();
    json.set(row, "spec", scheme);
    json.set(row, "workload", workload.name);
    json.set(row, "rounds_run", static_cast<double>(r.rounds_run));
    json.set(row, "rounds_per_second", r.rounds_per_second);
    json.set(row, "bits_per_coordinate", r.mean_bits_per_coordinate);
    json.set(row, "final_metric", r.final_metric);
    json.set(row, "best_metric", r.best_metric);
    json.set(row, "simulated_seconds", r.simulated_seconds);
    json.set(row, "mean_vnmse", r.mean_vnmse);
    json.set(row, "converged", r.converged ? 1.0 : 0.0);
    json.set(row, "pipeline_chunks",
             static_cast<double>(r.pipeline_chunks));
    json.set(row, "overlap_saved_s_per_round", r.overlap_saved_s_per_round);
  }
  bench_json().write();
  return results;
}

}  // namespace gcs::bench
