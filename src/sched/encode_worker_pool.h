// A small persistent thread pool for codec encodes.
//
// The local oracle (AggregationPipeline::aggregate) encodes one payload
// per worker per stage; those encodes are independent (each reads shared
// round state and writes only its own buffer — verified per scheme,
// asserted by the bit-identity tests), so a pool of N threads can run
// them concurrently.
//
// Determinism rule: the pool never decides *what* bytes are produced,
// only *when*. Every task writes to a slot chosen by the submitter
// (disjoint across tasks), tasks are claimed in submission order, and the
// caller's hand-off — wait_idle() or a per-slot signal — fixes the order
// in which results become visible. The multi-worker path is therefore
// bit-identical to the single-threaded one by construction; tests close
// the loop for all five schemes.
//
// Exceptions thrown by a task are captured and rethrown from wait_idle()
// (first one wins), so a codec error inside the pool fails the round
// loudly, exactly like the serial path.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "health/heartbeat.h"
#include "telemetry/metrics.h"

namespace gcs::sched {

class EncodeWorkerPool {
 public:
  /// Spawns `workers` threads (>= 1).
  explicit EncodeWorkerPool(int workers);
  ~EncodeWorkerPool();

  EncodeWorkerPool(const EncodeWorkerPool&) = delete;
  EncodeWorkerPool& operator=(const EncodeWorkerPool&) = delete;

  int workers() const noexcept { return workers_; }

  /// Enqueues a task; threads claim tasks in submission order.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has completed, then rethrows the
  /// first captured task exception, if any.
  void wait_idle();

  /// Cumulative submit -> claim queue wait across the pool's lifetime,
  /// in seconds. Only accumulates while telemetry is live (the clock
  /// reads are gated with the hand-off histogram); the causal profiler
  /// cross-checks its compute-bucket stalls against this.
  double cumulative_queue_wait_s() const;

 private:
  struct Task {
    std::function<void()> fn;
    /// Submission time, stamped only when hand-off telemetry is live.
    std::chrono::steady_clock::time_point submitted;
  };

  void worker_loop();

  int workers_;
  std::vector<std::thread> threads_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::vector<Task> queue_;
  std::size_t next_task_ = 0;   ///< queue_ index of the next unclaimed task
  std::size_t in_flight_ = 0;
  std::exception_ptr first_error_;
  bool stop_ = false;
  double total_wait_s_ = 0.0;  ///< under mu_; see cumulative_queue_wait_s

  /// Telemetry (dead handles when off): unclaimed-queue depth, the
  /// submit -> claim hand-off latency, and the lifetime wait total.
  /// Updated under mu_, which the pool already holds at both sites.
  telemetry::GaugeHandle queue_depth_;
  telemetry::HistogramHandle handoff_usec_;
  telemetry::FloatGaugeHandle queue_wait_s_;

  /// Watchdog heartbeat: armed once per outstanding task (submit arms,
  /// completion disarms — so an idle pool is disarmed and may sit still
  /// forever), beating at submit, claim and completion. A task that
  /// wedges inside a codec leaves the lane armed and silent, which is
  /// exactly what the watchdog escalates.
  health::LaneHandle lane_;
};

}  // namespace gcs::sched
