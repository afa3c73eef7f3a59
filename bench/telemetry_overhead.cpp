// Telemetry-off overhead gate (ISSUE 7 acceptance: with telemetry
// disabled, round time must be indistinguishable from the pre-telemetry
// build).
//
// The telemetry design promise is structural: a disabled handle is a null
// pointer, every instrumented call site is one inlined branch, and
// acquiring a handle while disabled registers nothing — no atomics, no
// clock reads, no registry growth on the hot path. This bench asserts
// both halves:
//
//   * structural — constructing and running a fully instrumented pipeline
//     with telemetry off must leave Registry::metric_count() unchanged
//     (`disabled_registrations` == 0, hard-gated: the committed baseline
//     pins 0 and bench_compare treats any growth as a regression);
//   * temporal — `overhead_ratio` = enabled/disabled median round time.
//     Wall-clock jitters across machines, so the CI gate runs with a
//     generous tolerance; the point is catching a silently de-inlined
//     handle or an atomic that leaked onto the disabled path (those show
//     up as a step change, not 10% noise).
//
// Gate:
//   bench_compare bench/baselines/BENCH_telemetry_overhead.json
//       BENCH_telemetry_overhead.json
//       --lower=overhead_ratio,disabled_registrations --tolerance=1.0
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
/// `spec` and returns the median per-round wall time. The pipeline is
/// constructed inside this function so handle acquisition happens under
/// the caller's telemetry state.
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
    std::cout << "telemetry_overhead: --dim=<coords> --rounds=<n> "
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

  print_header("Telemetry overhead",
               "Round time with telemetry off vs on; off must register "
               "nothing and cost nothing");

  // The transformer-like layout rounds to whole layers; size everything
  // off what it actually produced.
  const ModelLayout layout = make_transformer_like_layout(d);
  const std::size_t dim = layout.total_size();
  std::vector<std::vector<float>> grads(
      kWorld, std::vector<float>(dim));
  for (int w = 0; w < kWorld; ++w) {
    Rng rng(derive_seed(7077, w));
    for (auto& v : grads[w]) v = static_cast<float>(rng.next_gaussian());
  }
  std::vector<std::span<const float>> views;
  views.reserve(kWorld);
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());
  const std::span<const std::span<const float>> view_span(views);

  // --- telemetry off: structural assertion + timing floor ---------------
  telemetry::set_enabled(false);
  const std::size_t before = telemetry::Registry::instance().metric_count();
  const Timing off = run_phase(spec, layout, view_span, dim, warmup, rounds);
  const std::size_t disabled_registrations =
      telemetry::Registry::instance().metric_count() - before;

  // --- telemetry on: same workload, live handles ------------------------
  telemetry::set_enabled(true);
  const Timing on = run_phase(spec, layout, view_span, dim, warmup, rounds);
  const std::size_t enabled_registrations =
      telemetry::Registry::instance().metric_count() - before;

  const double overhead_ratio =
      off.median_usec > 0.0 ? on.median_usec / off.median_usec : 0.0;

  AsciiTable table({"phase", "median round (us)", "registrations"});
  table.add_row({"telemetry off", format_fixed(off.median_usec, 1),
                 std::to_string(disabled_registrations)});
  table.add_row({"telemetry on", format_fixed(on.median_usec, 1),
                 std::to_string(enabled_registrations)});
  std::cout << table.to_string() << "\noverhead ratio (on/off): "
            << format_fixed(overhead_ratio, 3) << "\n";

  auto& json = bench_json();
  json.set("telemetry_off", "round_usec_median", off.median_usec);
  json.set("telemetry_on", "round_usec_median", on.median_usec);
  json.set("summary", "overhead_ratio", overhead_ratio);
  json.set("summary", "disabled_registrations",
           static_cast<double>(disabled_registrations));
  json.set("summary", "enabled_registrations",
           static_cast<double>(enabled_registrations));
  json.write();

  if (disabled_registrations != 0) {
    std::cerr << "FAIL: telemetry-off run registered "
              << disabled_registrations
              << " metric(s); disabled handle acquisition must register "
                 "nothing\n";
    return 1;
  }
  if (enabled_registrations == 0) {
    std::cerr << "FAIL: telemetry-on run registered nothing — the "
                 "instrumentation is not wired up\n";
    return 1;
  }
  std::cout << "telemetry-off structural check passed (0 registrations)\n";
  return 0;
}
