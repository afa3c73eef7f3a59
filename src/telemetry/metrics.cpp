#include "telemetry/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace gcs::telemetry {

namespace {

// -1 = not yet resolved from the environment.
std::atomic<int> g_enabled{-1};

}  // namespace

bool enabled() noexcept {
  int v = g_enabled.load(std::memory_order_acquire);
  if (v < 0) {
    const char* env = std::getenv("GCS_TELEMETRY");
    const bool on =
        env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
    v = on ? 1 : 0;
    // A concurrent first call resolves to the same value; the race is benign.
    g_enabled.store(v, std::memory_order_release);
  }
  return v == 1;
}

void set_enabled(bool on) noexcept {
  g_enabled.store(on ? 1 : 0, std::memory_order_release);
}

std::size_t this_thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  static_assert((kMaxShards & (kMaxShards - 1)) == 0);
  return id & (kMaxShards - 1);
}

// -------------------------------------------------------------- Counter

Counter::Cell* Counter::cell() noexcept {
  const std::size_t shard = this_thread_shard();
  Cell* c = cells_[shard].load(std::memory_order_acquire);
  if (c != nullptr) return c;
  try {
    std::lock_guard<std::mutex> lock(grow_mu_);
    c = cells_[shard].load(std::memory_order_relaxed);
    if (c == nullptr) {
      owned_.push_back(std::make_unique<Cell>());
      c = owned_.back().get();
      cells_[shard].store(c, std::memory_order_release);
    }
    return c;
  } catch (...) {
    return nullptr;  // allocation failure: drop the sample, never throw
  }
}

void Counter::add(std::uint64_t delta) noexcept {
  if (Cell* c = cell()) c->v.fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const auto& slot : cells_) {
    if (const Cell* c = slot.load(std::memory_order_acquire)) {
      total += c->v.load(std::memory_order_relaxed);
    }
  }
  return total;
}

// ------------------------------------------------------------ Histogram

Histogram::Cell* Histogram::cell() noexcept {
  const std::size_t shard = this_thread_shard();
  Cell* c = cells_[shard].load(std::memory_order_acquire);
  if (c != nullptr) return c;
  try {
    std::lock_guard<std::mutex> lock(grow_mu_);
    c = cells_[shard].load(std::memory_order_relaxed);
    if (c == nullptr) {
      owned_.push_back(std::make_unique<Cell>());
      c = owned_.back().get();
      cells_[shard].store(c, std::memory_order_release);
    }
    return c;
  } catch (...) {
    return nullptr;
  }
}

void Histogram::observe(std::uint64_t v) noexcept {
  Cell* c = cell();
  if (c == nullptr) return;
  c->buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  c->count.fetch_add(1, std::memory_order_relaxed);
  c->sum.fetch_add(v, std::memory_order_relaxed);  // wrap-around by design
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot out;
  for (const auto& slot : cells_) {
    const Cell* c = slot.load(std::memory_order_acquire);
    if (c == nullptr) continue;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      out.buckets[i] += c->buckets[i].load(std::memory_order_relaxed);
    }
    out.count += c->count.load(std::memory_order_relaxed);
    out.sum += c->sum.load(std::memory_order_relaxed);
  }
  return out;
}

// ------------------------------------------------------------- Registry

Registry& Registry::instance() noexcept {
  static Registry* r = new Registry();  // never destroyed: handles outlive exit
  return *r;
}

Registry::Entry* Registry::find_or_create(std::string_view name,
                                          std::string_view labels,
                                          MetricKind kind) noexcept {
  try {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& e : entries_) {
      if (e->name == name && e->labels == labels) {
        // Kind mismatch on a reused (name, labels) key: refuse the handle
        // rather than alias two metric types onto one slot.
        return e->kind == kind ? e.get() : nullptr;
      }
    }
    auto e = std::make_unique<Entry>();
    e->name.assign(name);
    e->labels.assign(labels);
    e->kind = kind;
    switch (kind) {
      case MetricKind::kCounter:
        e->counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        e->gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kFloatGauge:
        e->float_gauge = std::make_unique<FloatGauge>();
        break;
      case MetricKind::kHistogram:
        e->histogram = std::make_unique<Histogram>();
        break;
    }
    entries_.push_back(std::move(e));
    return entries_.back().get();
  } catch (...) {
    return nullptr;
  }
}

CounterHandle Registry::counter(std::string_view name,
                                std::string_view labels) noexcept {
  if (!enabled()) return CounterHandle{};
  Entry* e = find_or_create(name, labels, MetricKind::kCounter);
  return CounterHandle{e != nullptr ? e->counter.get() : nullptr};
}

GaugeHandle Registry::gauge(std::string_view name,
                            std::string_view labels) noexcept {
  if (!enabled()) return GaugeHandle{};
  Entry* e = find_or_create(name, labels, MetricKind::kGauge);
  return GaugeHandle{e != nullptr ? e->gauge.get() : nullptr};
}

FloatGaugeHandle Registry::float_gauge(std::string_view name,
                                       std::string_view labels) noexcept {
  if (!enabled()) return FloatGaugeHandle{};
  Entry* e = find_or_create(name, labels, MetricKind::kFloatGauge);
  return FloatGaugeHandle{e != nullptr ? e->float_gauge.get() : nullptr};
}

HistogramHandle Registry::histogram(std::string_view name,
                                    std::string_view labels) noexcept {
  if (!enabled()) return HistogramHandle{};
  Entry* e = find_or_create(name, labels, MetricKind::kHistogram);
  return HistogramHandle{e != nullptr ? e->histogram.get() : nullptr};
}

std::size_t Registry::metric_count() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  std::vector<const Entry*> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    live.reserve(entries_.size());
    for (const auto& e : entries_) live.push_back(e.get());
  }
  // Entries are append-only with stable addresses, so reading metric state
  // outside the registry lock is safe.
  std::vector<MetricSnapshot> out;
  out.reserve(live.size());
  for (const Entry* e : live) {
    MetricSnapshot s;
    s.name = e->name;
    s.labels = e->labels;
    s.kind = e->kind;
    switch (e->kind) {
      case MetricKind::kCounter:
        s.counter_value = e->counter->value();
        break;
      case MetricKind::kGauge:
        s.gauge_value = e->gauge->value();
        break;
      case MetricKind::kFloatGauge:
        s.float_gauge_value = e->float_gauge->value();
        break;
      case MetricKind::kHistogram:
        s.histogram = e->histogram->snapshot();
        break;
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return out;
}

std::string Registry::prometheus_text() const {
  return to_prometheus_text(snapshot());
}

// ------------------------------------------------------------ rendering

double histogram_quantile(const Histogram::Snapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) *
                        static_cast<double>(h.count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    const std::uint64_t in_bucket = h.buckets[i];
    if (in_bucket == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) >= target) {
      // Linear interpolation inside the log bucket: the bucket bounds cap
      // the error at the histogram's quantization (<= 25% relative).
      const double lower = static_cast<double>(bucket_lower_bound(i));
      const double upper = static_cast<double>(bucket_upper_bound(i));
      const double frac = std::clamp(
          (target - before) / static_cast<double>(in_bucket), 0.0, 1.0);
      return lower + (upper - lower) * frac;
    }
  }
  return static_cast<double>(
      bucket_upper_bound(kHistogramBuckets - 1));  // unreachable: count > 0
}

std::string label_kv(std::string_view key, std::int64_t value) {
  std::string out(key);
  out += "=\"";
  out += std::to_string(value);
  out += '"';
  return out;
}

std::string label_kv(std::string_view key, std::string_view value) {
  std::string out(key);
  out += "=\"";
  out.append(value);
  out += '"';
  return out;
}

namespace {

void append_labeled(std::string& out, const std::string& name,
                    const std::string& labels, std::string_view extra = {}) {
  out += name;
  if (!labels.empty() || !extra.empty()) {
    out += '{';
    out += labels;
    if (!labels.empty() && !extra.empty()) out += ',';
    out.append(extra);
    out += '}';
  }
}

}  // namespace

std::string to_prometheus_text(const std::vector<MetricSnapshot>& metrics) {
  std::string out;
  const std::string* last_typed = nullptr;
  for (const MetricSnapshot& m : metrics) {
    if (last_typed == nullptr || *last_typed != m.name) {
      out += "# TYPE ";
      out += m.name;
      switch (m.kind) {
        case MetricKind::kCounter:
          out += " counter\n";
          break;
        case MetricKind::kGauge:
        case MetricKind::kFloatGauge:
          out += " gauge\n";
          break;
        case MetricKind::kHistogram:
          out += " histogram\n";
          break;
      }
      last_typed = &m.name;
    }
    switch (m.kind) {
      case MetricKind::kCounter:
        append_labeled(out, m.name, m.labels);
        out += ' ';
        out += std::to_string(m.counter_value);
        out += '\n';
        break;
      case MetricKind::kGauge:
        append_labeled(out, m.name, m.labels);
        out += ' ';
        out += std::to_string(m.gauge_value);
        out += '\n';
        break;
      case MetricKind::kFloatGauge: {
        append_labeled(out, m.name, m.labels);
        char value[48];
        std::snprintf(value, sizeof(value), " %.9g\n", m.float_gauge_value);
        out += value;
        break;
      }
      case MetricKind::kHistogram: {
        // Cumulative buckets; zero-count buckets are skipped (legal in the
        // exposition format — `le` bounds stay increasing, counts stay
        // cumulative) to keep 252-bucket histograms compact on the wire.
        // The last bucket's bound is 2^64-1, indistinguishable from +Inf
        // for consumers, so it is folded into the +Inf line.
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
          if (m.histogram.buckets[i] == 0) continue;
          cumulative += m.histogram.buckets[i];
          append_labeled(out, m.name + "_bucket", m.labels,
                         "le=\"" + std::to_string(bucket_upper_bound(i)) +
                             "\"");
          out += ' ';
          out += std::to_string(cumulative);
          out += '\n';
        }
        append_labeled(out, m.name + "_bucket", m.labels, "le=\"+Inf\"");
        out += ' ';
        out += std::to_string(m.histogram.count);
        out += '\n';
        append_labeled(out, m.name + "_sum", m.labels);
        out += ' ';
        out += std::to_string(m.histogram.sum);
        out += '\n';
        append_labeled(out, m.name + "_count", m.labels);
        out += ' ';
        out += std::to_string(m.histogram.count);
        out += '\n';
        // Estimated quantiles as gauge-style companion lines: dashboards
        // (tools/gcs_top) get tail latency without re-deriving
        // it from 252 cumulative buckets client-side.
        if (m.histogram.count > 0) {
          static constexpr struct {
            double q;
            const char* label;
          } kQuantiles[] = {
              {0.5, "quantile=\"0.5\""},
              {0.9, "quantile=\"0.9\""},
              {0.99, "quantile=\"0.99\""},
          };
          for (const auto& spec : kQuantiles) {
            append_labeled(out, m.name + "_quantile", m.labels, spec.label);
            char value[48];
            std::snprintf(value, sizeof(value), " %.9g\n",
                          histogram_quantile(m.histogram, spec.q));
            out += value;
          }
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace gcs::telemetry
