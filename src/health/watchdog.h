// Hang/stall watchdog over the heartbeat lanes (DESIGN.md "Health
// layer").
//
// A per-process thread samples every registered lane (health/heartbeat.h)
// at `poll_interval_ms` and tracks, per lane, when its progress counter
// last changed — the hot paths never read a clock; the watchdog owns all
// the time arithmetic. When an *armed* lane sits unchanged past
// `deadline_ms` the watchdog escalates once per stall episode:
//
//   * a StallReport naming the lane and (for per-peer lanes) the peer's
//     original rank goes to the `on_stall` callback — gcs_worker prints
//     the structured report and, with --watchdog-abort, fails the stuck
//     peer's channel so elastic recovery engages immediately instead of
//     waiting out the full peer timeout;
//   * the armed flight recorder dumps its ring (a post-mortem RankTrace,
//     rate-limited inside FlightRecorder::dump);
//   * telemetry: gcs_watchdog_stalls_total increments and the per-lane
//     gcs_stalled_lane{lane,peer} gauge goes to 1 (back to 0 on
//     recovery — progress resumes or the lane disarms).
//
// The clock is a seam: the thread feeds poll_once() steady-clock
// milliseconds, and tests drive poll_once() directly with a fake clock
// (tests/test_health.cpp), so stall/recovery semantics are testable
// without sleeping.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "health/heartbeat.h"
#include "telemetry/metrics.h"

namespace gcs::health {

/// One stalled lane, as escalated to on_stall (and listed by
/// active_stalls for the /health endpoint).
struct StallReport {
  std::string lane;            ///< lane name, e.g. "net.reader"
  int peer = -1;               ///< original rank for per-peer lanes
  std::uint64_t silent_ms = 0; ///< how long the lane sat armed+unchanged
  std::uint64_t progress = 0;  ///< the counter value it froze at
};

struct WatchdogConfig {
  /// Armed-lane silence tolerated before escalation.
  std::uint64_t deadline_ms = 5000;
  /// Lane scan period for the background thread.
  std::uint64_t poll_interval_ms = 250;
  /// Escalation callback, invoked once per stall episode from the
  /// watchdog thread. May be empty.
  std::function<void(const StallReport&)> on_stall;
  /// Recovery callback (progress resumed or lane disarmed). May be empty.
  std::function<void(const StallReport&)> on_recover;
  /// Dump the armed flight recorder's ring on the first escalation of an
  /// episode (FlightRecorder::dump is itself rate-limited).
  bool flight_dump = true;
};

class Watchdog {
 public:
  explicit Watchdog(WatchdogConfig config = {});
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Spawns the sampling thread (idempotent). Tests skip start() and
  /// drive poll_once() with their own clock.
  void start();
  /// Stops and joins the thread (idempotent; the destructor calls it).
  void stop();

  /// One scan of every lane at `now_ms` (any monotonic origin, but one
  /// origin per Watchdog). Returns the stalls that *fired* during this
  /// scan — recoveries and already-reported stalls are not repeated.
  std::vector<StallReport> poll_once(std::uint64_t now_ms);

  std::uint64_t stalls_total() const noexcept {
    return stalls_.load(std::memory_order_relaxed);
  }
  bool any_stalled() const noexcept {
    return active_.load(std::memory_order_relaxed) > 0;
  }
  /// Currently-stalled lanes (silent_ms as of the last scan) — the
  /// /health endpoint's watchdog.active list.
  std::vector<StallReport> active_stalls() const;

  const WatchdogConfig& config() const noexcept { return config_; }

 private:
  struct Track {
    bool seen = false;           ///< sampled at least once while armed
    std::uint64_t last_progress = 0;
    std::uint64_t last_change_ms = 0;
    bool stalled = false;
    std::uint64_t silent_ms = 0;  ///< refreshed each scan while stalled
    telemetry::GaugeHandle stalled_gauge;  ///< gcs_stalled_lane{lane,peer}
  };

  void run_loop();

  WatchdogConfig config_;
  mutable std::mutex mu_;  ///< guards tracks_ (scan thread vs readers)
  std::map<std::uint64_t, Track> tracks_;  ///< keyed by lane id
  std::vector<LaneState> last_scan_;       ///< lane identities for readers
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<int> active_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
  telemetry::CounterHandle stalls_total_;  ///< gcs_watchdog_stalls_total
};

}  // namespace gcs::health
