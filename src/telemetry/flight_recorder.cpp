#include "telemetry/flight_recorder.h"

#include <atomic>
#include <csignal>
#include <fstream>
#include <utility>

#include "measure/trace_merge.h"
#include "telemetry/metrics.h"

namespace gcs::telemetry {

namespace {

std::atomic<FlightRecorder*> g_process_recorder{nullptr};

// Fatal-signal path: dump once, then hand the signal back to the default
// disposition so the process still dies with the right status/core.
// Allocating in a signal handler is best-effort by design — the
// alternative is no post-mortem at all, and the handler re-raises either
// way.
std::atomic<bool> g_in_signal_dump{false};

void fatal_signal_handler(int sig) {
  if (!g_in_signal_dump.exchange(true)) {
    if (FlightRecorder* fr = g_process_recorder.load()) {
      std::string reason = "signal:";
      reason += std::to_string(sig);
      fr->dump(reason);
    }
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void install_signal_handlers() {
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    std::signal(sig, fatal_signal_handler);
  }
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(std::move(options)) {
  if (options_.ring_rounds == 0) options_.ring_rounds = 1;
  clock_ = measure::ClockModel::identity(options_.rank < 0 ? 0
                                                           : options_.rank);
}

FlightRecorder::~FlightRecorder() {
  // Disarm if this instance is the process target; a dangling pointer in
  // a signal handler would turn a clean shutdown into a crash.
  FlightRecorder* self = this;
  g_process_recorder.compare_exchange_strong(self, nullptr);
}

void FlightRecorder::set_clock(const measure::ClockModel& model) {
  std::lock_guard lock(mu_);
  clock_ = model;
}

void FlightRecorder::commit_round(std::uint64_t round, std::string scheme,
                                  std::string backend) {
  observe(recorder_.take(round, std::move(scheme), std::move(backend)));
}

void FlightRecorder::observe(measure::RoundTrace trace) {
  std::lock_guard lock(mu_);
  ring_.push_back(std::move(trace));
  while (ring_.size() > options_.ring_rounds) ring_.pop_front();
  ++rounds_seen_;
}

std::uint64_t FlightRecorder::rounds_seen() const {
  std::lock_guard lock(mu_);
  return rounds_seen_;
}

std::size_t FlightRecorder::ring_size() const {
  std::lock_guard lock(mu_);
  return ring_.size();
}

std::string FlightRecorder::build_dump_json(const std::string& reason) const {
  measure::RankTrace dump;
  dump.rank = options_.rank < 0 ? 0 : options_.rank;
  dump.dump_reason = reason.empty() ? "unknown" : reason;
  std::uint64_t rounds_seen = 0;
  {
    std::lock_guard lock(mu_);
    dump.traces.assign(ring_.begin(), ring_.end());
    dump.clock = clock_;
    rounds_seen = rounds_seen_;
  }
  // The round that was in flight when we died: whatever spans the
  // recorder holds that were never take()n. Usually the most valuable
  // part of the dump — it shows where each rank was stuck.
  std::vector<measure::TraceSpan> partial = recorder_.snapshot_spans();
  if (!partial.empty()) {
    measure::RoundTrace in_flight;
    in_flight.round =
        dump.traces.empty() ? rounds_seen : dump.traces.back().round + 1;
    in_flight.scheme = "(in-flight)";
    in_flight.epoch_s = recorder_.epoch_raw_s();
    in_flight.spans = std::move(partial);
    dump.traces.push_back(std::move(in_flight));
  }
  return measure::rank_trace_to_json(dump);
}

std::string FlightRecorder::dump(const std::string& reason) noexcept {
  try {
    std::uint64_t seq = 0;
    {
      std::lock_guard lock(mu_);
      const double now_s = measure::monotonic_now_s();
      if (now_s - last_dump_s_ < options_.min_dump_interval_s) return "";
      last_dump_s_ = now_s;
      seq = dump_seq_++;
    }
    const std::string body = build_dump_json(reason);
    std::string path = options_.dump_dir;
    if (!path.empty() && path.back() != '/') path += '/';
    path += "gcs_flight.rank";
    path += std::to_string(options_.rank < 0 ? 0 : options_.rank);
    path += '.';
    path += std::to_string(seq);
    path += ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) return "";
    out << body;
    out.flush();
    if (!out) return "";
    counter("gcs_flight_dumps_total").inc();
    return path;
  } catch (...) {
    return "";
  }
}

void FlightRecorder::arm_process_hooks(FlightRecorder* recorder) noexcept {
  g_process_recorder.store(recorder);
  if (recorder != nullptr) {
    static std::once_flag once;
    try {
      std::call_once(once, install_signal_handlers);
    } catch (...) {
    }
  }
}

FlightRecorder* FlightRecorder::process_instance() noexcept {
  return g_process_recorder.load();
}

void notify_peer_failure(int peer) noexcept {
  if (FlightRecorder* fr = g_process_recorder.load()) {
    std::string reason = "peer_failure:rank";
    try {
      reason += std::to_string(peer);
    } catch (...) {
    }
    fr->dump(reason);
  }
}

}  // namespace gcs::telemetry
