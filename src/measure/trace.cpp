#include "measure/trace.h"

#include <algorithm>
#include <utility>

namespace gcs::measure {

const char* phase_name(Phase phase) noexcept {
  switch (phase) {
    case Phase::kEncode: return "encode";
    case Phase::kSend: return "send";
    case Phase::kRecv: return "recv";
    case Phase::kReduce: return "reduce";
    case Phase::kDecode: return "decode";
    case Phase::kStage: return "stage";
    case Phase::kRound: return "round";
  }
  return "?";
}

double RoundTrace::round_s() const noexcept {
  double lo = 0.0, hi = 0.0;
  bool any = false;
  for (const auto& s : spans) {
    if (s.phase == Phase::kRound) return s.duration_s();
    if (!any) {
      lo = s.start_s;
      hi = s.end_s;
      any = true;
    } else {
      lo = std::min(lo, s.start_s);
      hi = std::max(hi, s.end_s);
    }
  }
  return any ? hi - lo : 0.0;
}

double RoundTrace::phase_total_s(Phase phase) const noexcept {
  double total = 0.0;
  for (const auto& s : spans) {
    if (s.phase == phase) total += s.duration_s();
  }
  return total;
}

std::size_t RoundTrace::phase_count(Phase phase) const noexcept {
  std::size_t count = 0;
  for (const auto& s : spans) count += s.phase == phase ? 1 : 0;
  return count;
}

std::uint64_t RoundTrace::phase_bytes(Phase phase) const noexcept {
  std::uint64_t bytes = 0;
  for (const auto& s : spans) {
    if (s.phase == phase) bytes += s.bytes;
  }
  return bytes;
}

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double TraceRecorder::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void TraceRecorder::record(TraceSpan span) {
  std::lock_guard lock(mu_);
  spans_.push_back(span);
}

void TraceRecorder::on_wire(int rank, int peer, bool is_send,
                            std::uint64_t tag, std::size_t bytes,
                            std::chrono::steady_clock::time_point start,
                            std::chrono::steady_clock::time_point end) {
  TraceSpan span;
  span.phase = is_send ? Phase::kSend : Phase::kRecv;
  span.rank = rank;
  span.peer = peer;
  span.tag = tag;
  span.bytes = bytes;
  span.start_s = std::chrono::duration<double>(start - epoch_).count();
  span.end_s = std::chrono::duration<double>(end - epoch_).count();
  record(span);
}

RoundTrace TraceRecorder::take(std::uint64_t round, std::string scheme,
                               std::string backend) {
  RoundTrace trace;
  trace.round = round;
  trace.scheme = std::move(scheme);
  trace.backend = std::move(backend);
  // The epoch the spans are relative to, on the raw monotonic clock —
  // the handle a ClockModel needs to place this round on the cluster
  // reference timeline (the epoch is then re-armed for the next round).
  trace.epoch_s =
      std::chrono::duration<double>(epoch_.time_since_epoch()).count();
  {
    std::lock_guard lock(mu_);
    trace.spans = std::move(spans_);
    spans_.clear();
  }
  epoch_ = std::chrono::steady_clock::now();
  return trace;
}

std::vector<TraceSpan> TraceRecorder::snapshot_spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

double TraceRecorder::epoch_raw_s() const {
  return std::chrono::duration<double>(epoch_.time_since_epoch()).count();
}

}  // namespace gcs::measure
