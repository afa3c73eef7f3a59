// Always-on flight recorder — a bounded ring of the last N rounds' spans
// plus a post-mortem dump path (DESIGN.md "Analysis layer").
//
// Tracing via --trace is opt-in and unbounded; you only have it when you
// knew in advance the run would misbehave. The flight recorder closes
// that gap: it owns a TraceRecorder that is always installed, keeps only
// the last `ring_rounds` completed rounds (constant memory), and writes
// everything it holds — including the partial spans of the round that
// was in flight — to one RankTrace file when something dies:
//
//   * comm::PeerFailure surfacing in the socket transport
//     (telemetry::notify_peer_failure, called by net/socket_fabric), or
//   * a fatal signal (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL) when
//     arm_process_hooks was called, or
//   * an explicit dump("reason") from the application.
//
// A dump is a plain RankTrace (measure/trace_merge.h) whose dump_reason
// names the incident, so gcs_analyze merges dumps from the surviving
// ranks into the same causal timeline as live traces — the clock model
// captured at the last sync rides along in the dump.
//
// Overhead is telemetry-grade: recording is the TraceRecorder span
// append; commit_round is a deque rotation. bench/flight_recorder_overhead
// gates the ratio against a committed baseline the same way
// bench/telemetry_overhead gates the metrics layer.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "measure/clock_sync.h"
#include "measure/trace.h"

namespace gcs::telemetry {

struct FlightRecorderOptions {
  /// Completed rounds retained; older ones rotate out.
  std::size_t ring_rounds = 8;
  /// Directory dump files are written into.
  std::string dump_dir = ".";
  /// Rank stamped into dumps (-1 dumps as rank 0).
  int rank = -1;
  /// Minimum seconds between dumps — a peer failure can surface once per
  /// in-flight recv, and one dump per incident is enough.
  double min_dump_interval_s = 0.5;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options = {});
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The recorder to install as PipelineConfig::trace / wire tap when no
  /// user-requested recorder is present.
  measure::TraceRecorder& recorder() noexcept { return recorder_; }

  /// Attaches the clock model from the latest sync so dumps are
  /// mergeable onto the reference timeline.
  void set_clock(const measure::ClockModel& model);

  /// Rotates the recorder's accumulated spans into the ring as one
  /// completed round. Call after every successful aggregate when the
  /// flight recorder's own recorder was the active trace sink.
  void commit_round(std::uint64_t round, std::string scheme,
                    std::string backend);

  /// Adds an externally take()n round (when a user --trace recorder owns
  /// the pipeline, its traces are observed here so the ring stays warm).
  void observe(measure::RoundTrace trace);

  std::uint64_t rounds_seen() const;
  std::size_t ring_size() const;

  /// The dump as rank-trace JSON (what dump() writes): the ring plus the
  /// in-flight round, the clock and `reason` as dump_reason ("unknown"
  /// when empty) — exposed for tests.
  std::string build_dump_json(const std::string& reason) const;

  /// Writes the dump to `<dump_dir>/gcs_flight.rank<R>.<seq>.json`.
  /// Returns the path, or "" when rate-limited or the write failed.
  /// Never throws: this runs on failure paths.
  std::string dump(const std::string& reason) noexcept;

  const FlightRecorderOptions& options() const noexcept { return options_; }

  /// Registers `recorder` as the process's dump target for
  /// notify_peer_failure and installs fatal-signal handlers (first call
  /// only). Pass nullptr to disarm (handlers stay installed but become
  /// no-ops). The recorder must outlive its registration.
  static void arm_process_hooks(FlightRecorder* recorder) noexcept;

  static FlightRecorder* process_instance() noexcept;

 private:
  FlightRecorderOptions options_;
  measure::TraceRecorder recorder_;
  mutable std::mutex mu_;
  measure::ClockModel clock_;
  std::deque<measure::RoundTrace> ring_;
  std::uint64_t rounds_seen_ = 0;
  std::uint64_t dump_seq_ = 0;
  double last_dump_s_ = -1e18;
};

/// Dump hook for the net layer: called when a transport raises
/// comm::PeerFailure. No-op unless a FlightRecorder armed process hooks.
void notify_peer_failure(int peer) noexcept;

}  // namespace gcs::telemetry
