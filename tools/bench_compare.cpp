// bench_compare: the perf-trajectory gate (ROADMAP "Perf trajectory
// tracking").
//
// Compares a freshly produced BENCH_<name>.json against the committed
// baseline under bench/baselines/ and fails (exit 1) when a tracked
// metric regresses by more than the tolerance (default 10%). Benches
// charge time analytically (sim/cost_model.h), so the numbers are
// deterministic across machines — a regression here is a real change in
// the modeled system, not CI noise.
//
// Metric direction is inferred from the key (checked in this order):
//   higher-is-better: rounds_per_second, speedup, hidden, saved, faster,
//                     identical, plus any --higher=<k1,k2,...> keys
//   lower-is-better:  keys containing "ms", "seconds" or ending in "_s",
//                     plus any --lower=<...> keys
// Unclassified numeric metrics are reported but not gated. A row or
// tracked metric present in the baseline but missing from the current
// file is itself a regression (coverage must not silently shrink).
// Metrics only the current file carries are tolerated (new coverage).
//
// A gate that can never fire is a misconfiguration, not a pass: a
// baseline with zero rows (e.g. an accidentally empty or truncated
// file), or whose rows track zero metrics, exits 2 loudly instead of
// reporting "0 regressions".
//
// Usage:
//   bench_compare <baseline.json> <current.json>
//       [--tolerance=0.10] [--higher=k1,k2] [--lower=k3]
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "common/json.h"

namespace {

// ----------------------------------------------------------- loading
// A BENCH file is what bench_util.h's BenchJson writes: one object whose
// "rows" array holds flat objects keyed by "label". It is read with the
// repo's one JSON parser (common/json.h); any other shape is a parse
// error.

struct BenchRow {
  std::string label;
  gcs::json::Value fields;  ///< the row object, "label" included
};

std::vector<BenchRow> load_bench(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw gcs::Error("bench_compare: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto parse_error = [&path](const std::string& what) {
    return gcs::Error("bench_compare: JSON parse error in " + path + ": " +
                      what);
  };
  gcs::json::Value doc;
  try {
    doc = gcs::json::parse(buffer.str());
  } catch (const gcs::Error& e) {
    throw parse_error(e.what());
  }
  const gcs::json::Value* rows = doc.find("rows");
  if (!doc.is_object() || (rows != nullptr && !rows->is_array())) {
    throw parse_error("expected {\"rows\": [...]}");
  }
  std::vector<BenchRow> out;
  if (rows == nullptr) return out;
  for (const gcs::json::Value& row : rows->items) {
    if (!row.is_object()) throw parse_error("a row is not an object");
    out.push_back({row.str_or("label", ""), row});
  }
  return out;
}

// ------------------------------------------------------- metric policy

enum class Direction { kHigherIsBetter, kLowerIsBetter, kUntracked };

bool contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

Direction classify(const std::string& key,
                   const std::vector<std::string>& higher,
                   const std::vector<std::string>& lower) {
  for (const auto& k : higher) {
    if (key == k) return Direction::kHigherIsBetter;
  }
  for (const auto& k : lower) {
    if (key == k) return Direction::kLowerIsBetter;
  }
  if (contains(key, "rounds_per_second") || contains(key, "speedup") ||
      contains(key, "hidden") || contains(key, "saved") ||
      contains(key, "faster") || contains(key, "identical")) {
    return Direction::kHigherIsBetter;
  }
  if (contains(key, "ms") || contains(key, "seconds") ||
      (key.size() >= 2 && key.compare(key.size() - 2, 2, "_s") == 0)) {
    return Direction::kLowerIsBetter;
  }
  return Direction::kUntracked;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    gcs::CliFlags flags(argc, argv);
    if (flags.help_requested() || flags.positional().size() != 2) {
      std::cout << "usage: bench_compare <baseline.json> <current.json>"
                   " [--tolerance=0.10] [--higher=k1,k2] [--lower=k3]\n";
      return flags.help_requested() ? 0 : 2;
    }
    const std::string baseline_path = flags.positional()[0];
    const std::string current_path = flags.positional()[1];
    const double tolerance = flags.get_double("tolerance", 0.10);
    const auto higher = gcs::split_csv(flags.get_string("higher", ""));
    const auto lower = gcs::split_csv(flags.get_string("lower", ""));
    flags.reject_unknown();

    const auto baseline = load_bench(baseline_path);
    const auto current = load_bench(current_path);
    if (baseline.empty()) {
      throw gcs::Error("bench_compare: baseline " + baseline_path +
                       " has no rows — an empty gate passes everything; "
                       "regenerate or re-commit the baseline");
    }

    int regressions = 0;
    int tracked = 0;
    for (const auto& base_row : baseline) {
      const BenchRow* cur_row = nullptr;
      for (const auto& r : current) {
        if (r.label == base_row.label) {
          cur_row = &r;
          break;
        }
      }
      if (cur_row == nullptr) {
        std::cout << "REGRESSION  row '" << base_row.label
                  << "' missing from " << current_path << '\n';
        ++regressions;
        continue;
      }
      for (const auto& [key, base_value] : base_row.fields.members) {
        if (!base_value.is_number()) continue;
        const Direction dir = classify(key, higher, lower);
        if (dir == Direction::kUntracked) continue;
        ++tracked;
        const gcs::json::Value* cur_value = cur_row->fields.find(key);
        if (cur_value == nullptr || !cur_value->is_number()) {
          std::cout << "REGRESSION  " << base_row.label << " / " << key
                    << ": missing from current run\n";
          ++regressions;
          continue;
        }
        const double b = base_value.number;
        const double c = cur_value->number;
        bool bad = false;
        if (b != 0.0) {
          const double ratio = c / b;
          bad = dir == Direction::kHigherIsBetter
                    ? ratio < 1.0 - tolerance
                    : ratio > 1.0 + tolerance;
        } else {
          // A zero baseline can only regress in the lower-is-better
          // direction (cost appearing where there was none).
          bad = dir == Direction::kLowerIsBetter && c > 0.0;
        }
        if (bad) {
          std::cout << "REGRESSION  " << base_row.label << " / " << key
                    << ": " << b << " -> " << c << " ("
                    << (dir == Direction::kHigherIsBetter ? "want >= "
                                                          : "want <= ")
                    << (dir == Direction::kHigherIsBetter
                            ? b * (1.0 - tolerance)
                            : b * (1.0 + tolerance))
                    << ")\n";
          ++regressions;
        }
      }
    }
    // (regressions from whole-missing rows count even when no metric got
    // as far as classification — those must stay exit 1, not exit 2.)
    if (tracked == 0 && regressions == 0) {
      throw gcs::Error(
          "bench_compare: baseline " + baseline_path +
          " tracks no metrics (no key matches a known direction and no "
          "--higher/--lower was given) — the gate would be vacuous");
    }
    std::cout << "bench_compare: " << tracked << " tracked metric(s), "
              << regressions << " regression(s) beyond "
              << tolerance * 100 << "% ("
              << baseline_path << " vs " << current_path << ")\n";
    return regressions == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
}
