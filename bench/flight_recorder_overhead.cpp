// Flight-recorder overhead gate (ISSUE 8 acceptance: the always-on
// flight recorder must be cheap enough to leave on in production runs).
//
// The flight recorder promise is "always on": every round's spans are
// recorded into the pipeline's span sink and rotated into a bounded ring
// so a peer failure or fatal signal can dump the recent past post
// mortem. That recording happens on the hot path, so this bench asserts
// both halves:
//
//   * structural — after R rounds the ring holds min(R, ring_rounds)
//     traces, rounds_seen() == R, and the dump JSON round-trips through
//     measure::parse_rank_trace_json (a dump nobody can load is not a
//     flight recorder);
//   * temporal — `overhead_ratio` = flight-on / flight-off median round
//     time. The CI gate runs with a generous tolerance via
//     bench_compare; the point is catching an accidental per-span
//     allocation or lock convoy, not 10% of wall-clock noise.
//
// Gate:
//   bench_compare bench/baselines/BENCH_flight_recorder_overhead.json
//       BENCH_flight_recorder_overhead.json
//       --lower=overhead_ratio --tolerance=1.0
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "measure/trace_merge.h"
#include "telemetry/flight_recorder.h"
#include "tensor/layout.h"

namespace {

using namespace gcs;
using namespace gcs::bench;

constexpr int kWorld = 4;

struct Timing {
  double median_usec = 0.0;
};

/// Runs `rounds` pipeline rounds with or without a flight recorder
/// installed as the span sink and returns the median per-round wall time.
Timing run_phase(const std::string& spec, const ModelLayout& layout,
                 std::span<const std::span<const float>> views,
                 std::size_t d, int warmup, int rounds,
                 telemetry::FlightRecorder* flight) {
  core::PipelineConfig pc =
      core::parse_pipeline_config(spec, layout, kWorld);
  pc.flight = flight;
  core::AggregationPipeline pipeline(
      core::make_scheme_codec(spec, layout, kWorld), pc);
  std::vector<float> out(d);
  std::uint64_t round = 0;
  for (int i = 0; i < warmup; ++i) pipeline.aggregate(views, out, round++);
  std::vector<double> usec;
  usec.reserve(static_cast<std::size_t>(rounds));
  for (int i = 0; i < rounds; ++i) {
    const auto start = std::chrono::steady_clock::now();
    pipeline.aggregate(views, out, round++);
    usec.push_back(std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start)
                       .count());
  }
  std::sort(usec.begin(), usec.end());
  return Timing{usec[usec.size() / 2]};
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  if (flags.help_requested()) {
    std::cout << "flight_recorder_overhead: --dim=<coords> --rounds=<n> "
                 "--warmup=<n> --spec=<scheme> --ring=<rounds>\n";
    return 0;
  }
  const auto d =
      static_cast<std::size_t>(flags.get_int("dim", std::int64_t{1} << 18));
  const int rounds = static_cast<int>(flags.get_int("rounds", 30));
  const int warmup = static_cast<int>(flags.get_int("warmup", 3));
  const auto ring =
      static_cast<std::size_t>(flags.get_int("ring", 8));
  const std::string spec =
      flags.get_string("spec", "topkc:b=4:chunk=65536:workers=2");
  flags.reject_unknown();

  print_header("Flight recorder overhead",
               "Round time with the always-on flight recorder off vs on; "
               "the ring must stay bounded and the dump loadable");

  const ModelLayout layout = make_transformer_like_layout(d);
  const std::size_t dim = layout.total_size();
  std::vector<std::vector<float>> grads(kWorld, std::vector<float>(dim));
  for (int w = 0; w < kWorld; ++w) {
    Rng rng(derive_seed(8088, w));
    for (auto& v : grads[w]) v = static_cast<float>(rng.next_gaussian());
  }
  std::vector<std::span<const float>> views;
  views.reserve(kWorld);
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());
  const std::span<const std::span<const float>> view_span(views);

  // --- flight recorder off: the timing floor ----------------------------
  const Timing off =
      run_phase(spec, layout, view_span, dim, warmup, rounds, nullptr);

  // --- flight recorder on: same workload, ring rotating every round -----
  telemetry::FlightRecorderOptions fo;
  fo.ring_rounds = ring;
  fo.rank = 0;
  telemetry::FlightRecorder flight(fo);
  const Timing on =
      run_phase(spec, layout, view_span, dim, warmup, rounds, &flight);

  const double overhead_ratio =
      off.median_usec > 0.0 ? on.median_usec / off.median_usec : 0.0;
  const std::size_t expected_ring =
      std::min<std::size_t>(ring, static_cast<std::size_t>(warmup + rounds));

  AsciiTable table({"phase", "median round (us)"});
  table.add_row({"flight off", format_fixed(off.median_usec, 1)});
  table.add_row({"flight on", format_fixed(on.median_usec, 1)});
  std::cout << table.to_string() << "\noverhead ratio (on/off): "
            << format_fixed(overhead_ratio, 3) << "\n";

  auto& json = bench_json();
  json.set("flight_off", "round_usec_median", off.median_usec);
  json.set("flight_on", "round_usec_median", on.median_usec);
  json.set("summary", "overhead_ratio", overhead_ratio);
  json.set("summary", "ring_size", static_cast<double>(flight.ring_size()));
  json.set("summary", "rounds_seen",
           static_cast<double>(flight.rounds_seen()));
  json.write();

  if (flight.rounds_seen() !=
      static_cast<std::uint64_t>(warmup + rounds)) {
    std::cerr << "FAIL: flight recorder saw " << flight.rounds_seen()
              << " rounds, expected " << warmup + rounds << "\n";
    return 1;
  }
  if (flight.ring_size() != expected_ring) {
    std::cerr << "FAIL: ring holds " << flight.ring_size()
              << " round(s), expected " << expected_ring << "\n";
    return 1;
  }
  try {
    const measure::RankTrace loaded =
        measure::parse_rank_trace_json(flight.build_dump_json("bench"));
    if (loaded.traces.empty()) {
      std::cerr << "FAIL: dump JSON loaded but carries no traces\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "FAIL: dump JSON did not round-trip: " << e.what() << "\n";
    return 1;
  }
  std::cout << "flight-recorder structural checks passed (ring bounded, "
               "dump loadable)\n";
  return 0;
}
