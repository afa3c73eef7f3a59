// Live runtime metrics: registry, sharded counters/gauges/histograms,
// Prometheus text exposition (DESIGN.md "Telemetry layer").
//
// The measurement layer (src/measure/) answers "where did *this traced
// round* spend its time" — offline, per round, serialized at exit. This
// file answers "what is the process doing *right now*": monotonic
// counters, gauges and log-bucketed duration/size histograms that every
// subsystem reports into continuously and that a scrape (the stats
// endpoint, tools/gcs_top) can read mid-run without stopping anything.
//
// Design constraints, in order:
//   * Zero cost when off. Instrumented code holds *handles*, acquired
//     once at construction time. With telemetry disabled a handle is a
//     null pointer and every operation on it is a compile-time-inlined
//     branch — no atomics, no clock reads, no registry traffic
//     (bench/telemetry_overhead.cpp gates this; the registry also proves
//     it structurally: disabled acquisition registers nothing).
//   * Lock-free when on. Each metric keeps per-thread shards (one
//     cache-line-aligned cell per thread, materialized lazily); the hot
//     path is one relaxed fetch_add on the calling thread's own cell.
//     Shards are merged only at scrape time, and the merge is a sum —
//     deterministic regardless of thread interleaving.
//   * Never throws into instrumented code. Handle acquisition and every
//     handle operation are noexcept; an allocation failure inside the
//     registry yields a dead handle, not an exception in a codec loop.
//
// Histograms are HDR-style log-bucketed: 4 sub-buckets per power of two
// (relative quantization error <= 25%), values 0..2^64-1, 252 buckets
// total. Bucket semantics are pinned by tests/test_telemetry.cpp
// (boundaries, zero/max samples, cross-thread merge determinism).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gcs::telemetry {

/// Whether metric handles acquired *now* are live. Resolved from the
/// GCS_TELEMETRY environment variable (non-empty, non-"0") on first use;
/// set_enabled() overrides. Flipping affects only handles acquired
/// afterwards — instrumented objects acquire theirs at construction.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Threads shard metrics through a dense per-thread index; two threads
/// may legally share a shard beyond this many (the cells are atomic, so
/// collisions cost contention, never correctness). Power of two.
inline constexpr std::size_t kMaxShards = 128;

/// Dense id of the calling thread, folded into [0, kMaxShards).
std::size_t this_thread_shard() noexcept;

// ------------------------------------------------------------ histogram
// Log-bucketed value -> bucket mapping, exposed for tests and renderers.
//
// Bucket 0 holds exactly the value 0. Values 1..3 get their own buckets
// 1..3. From 4 up, each power-of-two octave splits into 4 sub-buckets:
//   index(v) = 4 + (octave - 2) * 4 + ((v >> (octave - 2)) & 3),
//   octave   = floor(log2 v).
// The last bucket (index 251) ends at 2^64 - 1.

inline constexpr std::size_t kHistogramBuckets = 252;

constexpr std::size_t bucket_index(std::uint64_t v) noexcept {
  if (v < 4) return static_cast<std::size_t>(v);
  const auto octave =
      static_cast<std::size_t>(63 - std::countl_zero(v));
  return 4 + (octave - 2) * 4 +
         static_cast<std::size_t>((v >> (octave - 2)) & 3);
}

/// Smallest value that lands in bucket `i` (strictly increasing in i).
constexpr std::uint64_t bucket_lower_bound(std::size_t i) noexcept {
  if (i < 4) return i;
  const std::size_t octave = 2 + (i - 4) / 4;
  const std::uint64_t sub = (i - 4) % 4;
  return (std::uint64_t{1} << octave) + (sub << (octave - 2));
}

/// Largest value that lands in bucket `i` (the Prometheus `le` bound).
constexpr std::uint64_t bucket_upper_bound(std::size_t i) noexcept {
  return i + 1 < kHistogramBuckets ? bucket_lower_bound(i + 1) - 1
                                   : ~std::uint64_t{0};
}

// -------------------------------------------------------------- metrics
// The registry owns these; instrumented code only ever sees handles.

/// Monotonic counter with per-thread shards.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept;
  /// Sum over shards. Non-decreasing under concurrent add()s (every
  /// shard is monotone and new shards start at zero).
  std::uint64_t value() const noexcept;

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell* cell() noexcept;

  std::array<std::atomic<Cell*>, kMaxShards> cells_{};
  std::mutex grow_mu_;
  std::vector<std::unique_ptr<Cell>> owned_;  // stable storage

  friend class Registry;
};

/// Point-in-time value (queue depth, current epoch). A single atomic:
/// gauges are set/adjusted at event rate, not in codec loops.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time real value (ratios, seconds). Same contract as Gauge but
/// double-valued: the analysis layer publishes fractional seconds
/// (gcs_critical_slack_seconds) that an integer gauge would truncate to
/// zero. Stored as the bit pattern in one atomic word — set/value are
/// lock-free and never torn.
class FloatGauge {
 public:
  void set(double v) noexcept {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  double value() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

/// Log-bucketed histogram with per-thread shards (see bucket_index).
/// `sum` accumulates with wrap-around u64 arithmetic so the cross-shard
/// merge stays deterministic (no float addition-order dependence).
class Histogram {
 public:
  void observe(std::uint64_t v) noexcept;

  struct Snapshot {
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  Snapshot snapshot() const noexcept;

 private:
  struct alignas(64) Cell {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  Cell* cell() noexcept;

  std::array<std::atomic<Cell*>, kMaxShards> cells_{};
  std::mutex grow_mu_;
  std::vector<std::unique_ptr<Cell>> owned_;

  friend class Registry;
};

// -------------------------------------------------------------- handles
// What instrumented code holds. Default-constructed (or acquired while
// telemetry is off) handles are dead: every operation is one inlined
// null-check, no atomics, no clock reads.

class CounterHandle {
 public:
  CounterHandle() = default;
  void inc(std::uint64_t delta = 1) noexcept {
    if (m_ != nullptr) m_->add(delta);
  }
  bool live() const noexcept { return m_ != nullptr; }
  std::uint64_t value() const noexcept {
    return m_ != nullptr ? m_->value() : 0;
  }

 private:
  explicit CounterHandle(Counter* m) noexcept : m_(m) {}
  Counter* m_ = nullptr;
  friend class Registry;
};

class GaugeHandle {
 public:
  GaugeHandle() = default;
  void set(std::int64_t v) noexcept {
    if (m_ != nullptr) m_->set(v);
  }
  void add(std::int64_t d) noexcept {
    if (m_ != nullptr) m_->add(d);
  }
  bool live() const noexcept { return m_ != nullptr; }
  std::int64_t value() const noexcept {
    return m_ != nullptr ? m_->value() : 0;
  }

 private:
  explicit GaugeHandle(Gauge* m) noexcept : m_(m) {}
  Gauge* m_ = nullptr;
  friend class Registry;
};

class FloatGaugeHandle {
 public:
  FloatGaugeHandle() = default;
  void set(double v) noexcept {
    if (m_ != nullptr) m_->set(v);
  }
  bool live() const noexcept { return m_ != nullptr; }
  double value() const noexcept { return m_ != nullptr ? m_->value() : 0.0; }

 private:
  explicit FloatGaugeHandle(FloatGauge* m) noexcept : m_(m) {}
  FloatGauge* m_ = nullptr;
  friend class Registry;
};

class HistogramHandle {
 public:
  HistogramHandle() = default;
  void observe(std::uint64_t v) noexcept {
    if (m_ != nullptr) m_->observe(v);
  }
  bool live() const noexcept { return m_ != nullptr; }
  Histogram::Snapshot snapshot() const noexcept {
    return m_ != nullptr ? m_->snapshot() : Histogram::Snapshot{};
  }

 private:
  explicit HistogramHandle(Histogram* m) noexcept : m_(m) {}
  Histogram* m_ = nullptr;
  friend class Registry;
};

/// RAII microsecond timer into a histogram: reads the clock only when the
/// handle is live (the off == zero-clock-reads invariant).
class ScopedUsecTimer {
 public:
  explicit ScopedUsecTimer(const HistogramHandle& h) noexcept : h_(h) {
    if (h_.live()) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedUsecTimer() {
    if (h_.live()) {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_);
      h_.observe(static_cast<std::uint64_t>(us.count() < 0 ? 0
                                                           : us.count()));
    }
  }
  ScopedUsecTimer(const ScopedUsecTimer&) = delete;
  ScopedUsecTimer& operator=(const ScopedUsecTimer&) = delete;

 private:
  HistogramHandle h_;
  std::chrono::steady_clock::time_point start_;
};

// ------------------------------------------------------------- registry

enum class MetricKind : std::uint8_t {
  kCounter,
  kGauge,
  kFloatGauge,
  kHistogram,
};

/// One metric's merged state at scrape time.
struct MetricSnapshot {
  std::string name;
  std::string labels;  ///< inner label list, e.g. `peer="2"`; may be empty
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter_value = 0;
  std::int64_t gauge_value = 0;
  double float_gauge_value = 0.0;
  Histogram::Snapshot histogram;
};

/// Process-wide metric registry. Metrics are created on first handle
/// acquisition, keyed by (name, labels), and never destroyed — handles
/// stay valid for the process lifetime. All methods are thread-safe.
class Registry {
 public:
  static Registry& instance() noexcept;

  /// Metric lookups (create-on-first-use). Return dead handles when
  /// telemetry is disabled — and register nothing, which is how the
  /// overhead bench asserts the off == zero-cost invariant structurally.
  CounterHandle counter(std::string_view name,
                        std::string_view labels = {}) noexcept;
  GaugeHandle gauge(std::string_view name,
                    std::string_view labels = {}) noexcept;
  FloatGaugeHandle float_gauge(std::string_view name,
                               std::string_view labels = {}) noexcept;
  HistogramHandle histogram(std::string_view name,
                            std::string_view labels = {}) noexcept;

  /// Number of registered metrics (0 until something acquires a live
  /// handle).
  std::size_t metric_count() const noexcept;

  /// Merged state of every metric, sorted by (name, labels) — the
  /// deterministic scrape order.
  std::vector<MetricSnapshot> snapshot() const;

  /// Prometheus text exposition (text format 0.0.4) of snapshot().
  std::string prometheus_text() const;

 private:
  Registry() = default;

  struct Entry {
    std::string name;
    std::string labels;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<FloatGauge> float_gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry* find_or_create(std::string_view name, std::string_view labels,
                        MetricKind kind) noexcept;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // stable addresses
};

/// Convenience free functions over Registry::instance().
inline CounterHandle counter(std::string_view name,
                             std::string_view labels = {}) noexcept {
  return Registry::instance().counter(name, labels);
}
inline GaugeHandle gauge(std::string_view name,
                         std::string_view labels = {}) noexcept {
  return Registry::instance().gauge(name, labels);
}
inline FloatGaugeHandle float_gauge(std::string_view name,
                                    std::string_view labels = {}) noexcept {
  return Registry::instance().float_gauge(name, labels);
}
inline HistogramHandle histogram(std::string_view name,
                                 std::string_view labels = {}) noexcept {
  return Registry::instance().histogram(name, labels);
}

/// Estimated q-quantile (q in [0,1]) of a log-bucketed snapshot: walks
/// the cumulative distribution to the target bucket and interpolates
/// linearly inside it, so the error is bounded by the bucket width
/// (<= 25% relative). Returns 0 for an empty histogram. The exposition
/// renders p50/p90/p99 as `<name>_quantile{quantile="..."}` lines.
double histogram_quantile(const Histogram::Snapshot& h, double q);

/// Formats one label pair for the `labels` argument: label_kv("peer", 2)
/// == `peer="2"`. Join multiple pairs with ','.
std::string label_kv(std::string_view key, std::int64_t value);
std::string label_kv(std::string_view key, std::string_view value);

/// Renders a snapshot as Prometheus text (exposed for tests; the
/// registry's prometheus_text() uses it).
std::string to_prometheus_text(const std::vector<MetricSnapshot>& metrics);

}  // namespace gcs::telemetry
