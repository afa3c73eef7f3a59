// Health-layer overhead gate (ISSUE 9 acceptance: the always-on
// self-watching runtime must cost nothing measurable on the round path).
//
// The health design promise mirrors the telemetry one: a heartbeat is a
// single relaxed fetch_add with no clock read, arming is one atomic
// add, and ALL time arithmetic lives on the watchdog/monitor threads —
// never on the hot path. This bench runs the same instrumented pipeline
// twice with telemetry enabled in both phases:
//
//   * baseline — heartbeats land but nobody watches (no watchdog, no
//     monitor thread);
//   * watched  — a Watchdog polls every lane at 50 ms and a
//     HealthMonitor samples the metric registry at 50 ms, concurrently
//     with the aggregation rounds.
//
// `overhead_ratio` = watched/baseline median round time; the structural
// half asserts (exit code) that the lanes the pipeline and worker pool
// claim to register actually exist, that a healthy run produces zero
// watchdog stalls, and that the anomaly detectors report zero false
// positives on a stationary workload.
//
// Gate:
//   bench_compare bench/baselines/BENCH_health_overhead.json
//       BENCH_health_overhead.json
//       --lower=overhead_ratio,watchdog_stalls,false_positives
//       --tolerance=0.5
// (the tolerance is twice the measured run-to-run spread of
// overhead_ratio; see the CI step).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/factory.h"
#include "health/health_monitor.h"
#include "health/heartbeat.h"
#include "health/watchdog.h"
#include "telemetry/metrics.h"
#include "tensor/layout.h"

namespace {

using namespace gcs;
using namespace gcs::bench;

constexpr int kWorld = 4;

struct Timing {
  double median_usec = 0.0;
  double total_usec = 0.0;
};

/// Runs `rounds` aggregation rounds of a fresh pipeline built from
/// `spec` and returns the median per-round wall time.
Timing run_phase(const std::string& spec, const ModelLayout& layout,
                 std::span<const std::span<const float>> views,
                 std::size_t d, int warmup, int rounds) {
  auto pipeline = core::make_pipeline(spec, layout, kWorld);
  std::vector<float> out(d);
  std::uint64_t round = 0;
  for (int i = 0; i < warmup; ++i) {
    pipeline.aggregate(views, out, round++);
  }
  std::vector<double> usec;
  usec.reserve(static_cast<std::size_t>(rounds));
  Timing t;
  for (int i = 0; i < rounds; ++i) {
    const auto start = std::chrono::steady_clock::now();
    pipeline.aggregate(views, out, round++);
    const auto waited = std::chrono::duration<double, std::micro>(
        std::chrono::steady_clock::now() - start);
    usec.push_back(waited.count());
    t.total_usec += waited.count();
  }
  std::sort(usec.begin(), usec.end());
  t.median_usec = usec[usec.size() / 2];
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  if (flags.help_requested()) {
    std::cout << "health_overhead: --dim=<coords> --rounds=<n> "
                 "--warmup=<n> --spec=<scheme>\n";
    return 0;
  }
  const auto d =
      static_cast<std::size_t>(flags.get_int("dim", std::int64_t{1} << 18));
  const int rounds = static_cast<int>(flags.get_int("rounds", 30));
  const int warmup = static_cast<int>(flags.get_int("warmup", 3));
  const std::string spec =
      flags.get_string("spec", "topkc:b=4:chunk=65536:workers=2");
  flags.reject_unknown();

  print_header("Health overhead",
               "Round time with nobody watching vs watchdog+monitor "
               "threads live; healthy runs must stay stall- and "
               "anomaly-free");

  const ModelLayout layout = make_transformer_like_layout(d);
  const std::size_t dim = layout.total_size();
  std::vector<std::vector<float>> grads(kWorld, std::vector<float>(dim));
  for (int w = 0; w < kWorld; ++w) {
    Rng rng(derive_seed(9099, w));
    for (auto& v : grads[w]) v = static_cast<float>(rng.next_gaussian());
  }
  std::vector<std::span<const float>> views;
  views.reserve(kWorld);
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());
  const std::span<const std::span<const float>> view_span(views);

  // Telemetry on in BOTH phases: the ratio isolates the health layer
  // (watchdog + monitor threads), not the metric instrumentation the
  // telemetry_overhead bench already gates.
  telemetry::set_enabled(true);

  // --- baseline: heartbeats land, nobody watches ------------------------
  const Timing off = run_phase(spec, layout, view_span, dim, warmup, rounds);

  // Structural: the pipeline and the worker pool must have registered
  // their lanes (the spec above runs encode workers).
  const std::size_t lanes = health::LaneRegistry::instance().lane_count();

  // --- watched: watchdog + monitor threads polling concurrently ---------
  health::WatchdogConfig wd_config;
  wd_config.deadline_ms = 10000;  // a healthy round is microseconds
  wd_config.poll_interval_ms = 50;
  health::Watchdog watchdog(wd_config);
  watchdog.start();

  health::HealthMonitorConfig mon_config;
  mon_config.rank = 0;
  mon_config.interval_ms = 50;
  mon_config.watchdog = &watchdog;
  health::HealthMonitor monitor(mon_config);
  monitor.start();

  const Timing on = run_phase(spec, layout, view_span, dim, warmup, rounds);

  monitor.stop();
  watchdog.stop();

  const std::uint64_t stalls = watchdog.stalls_total();
  const std::uint64_t false_positives = monitor.bank().total_detections();
  const double overhead_ratio =
      off.median_usec > 0.0 ? on.median_usec / off.median_usec : 0.0;

  AsciiTable table({"phase", "median round (us)"});
  table.add_row({"unwatched", format_fixed(off.median_usec, 1)});
  table.add_row({"watched", format_fixed(on.median_usec, 1)});
  std::cout << table.to_string() << "\noverhead ratio (watched/unwatched): "
            << format_fixed(overhead_ratio, 3) << "\nlanes registered: "
            << lanes << ", stalls: " << stalls
            << ", detections: " << false_positives << "\n";

  auto& json = bench_json();
  json.set("unwatched", "round_usec_median", off.median_usec);
  json.set("watched", "round_usec_median", on.median_usec);
  json.set("summary", "overhead_ratio", overhead_ratio);
  json.set("summary", "watchdog_stalls", static_cast<double>(stalls));
  json.set("summary", "false_positives",
           static_cast<double>(false_positives));
  json.set("summary", "lanes_registered", static_cast<double>(lanes));
  json.write();

  if (lanes < 2) {
    std::cerr << "FAIL: expected at least the pipeline.round and "
                 "sched.worker lanes, found " << lanes << "\n";
    return 1;
  }
  if (stalls != 0) {
    std::cerr << "FAIL: a healthy run tripped the watchdog " << stalls
              << " time(s)\n";
    return 1;
  }
  if (false_positives != 0) {
    std::cerr << "FAIL: anomaly detectors fired " << false_positives
              << " time(s) on a stationary workload\n";
    return 1;
  }
  std::cout << "health structural checks passed (lanes registered, zero "
               "stalls, zero false positives)\n";
  return 0;
}
