#include "telemetry/chrome_trace.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>

#include "common/json.h"

namespace gcs::telemetry {

namespace {

using measure::MergedSpan;
using measure::Phase;
using measure::RoundTrace;
using measure::TraceSpan;

constexpr std::int64_t kPipelineTid = 0;
constexpr std::int64_t kEncodeTidBase = 1;
constexpr std::int64_t kWireTidBase = 100;

std::int64_t lane_tid(Phase phase, int worker, int peer) noexcept {
  switch (phase) {
    case Phase::kEncode:
      return kEncodeTidBase + (worker >= 0 ? worker + 1 : 0);
    case Phase::kSend:
      return kWireTidBase + 2 * std::max(peer, 0);
    case Phase::kRecv:
      return kWireTidBase + 2 * std::max(peer, 0) + 1;
    case Phase::kRound:
    case Phase::kStage:
    case Phase::kReduce:
    case Phase::kDecode:
      break;
  }
  return kPipelineTid;
}

std::string tid_name(std::int64_t tid) {
  if (tid == kPipelineTid) return "pipeline";
  if (tid < kWireTidBase) {
    return tid == kEncodeTidBase
               ? "encode (caller)"
               : "encode worker " + std::to_string(tid - kEncodeTidBase - 1);
  }
  const std::int64_t peer = (tid - kWireTidBase) / 2;
  return ((tid - kWireTidBase) % 2 == 0 ? "send -> peer " : "recv <- peer ") +
         std::to_string(peer);
}

/// Nearest microsecond: instants are differences of large monotonic
/// stamps, so truncation would turn 2 ms into 1999 us.
std::int64_t usec(double seconds) noexcept {
  return std::llround(seconds * 1e6);
}

/// Accumulates trace events and the (pid, tid) metadata they imply.
struct EventSink {
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  std::set<std::pair<std::int64_t, std::int64_t>> seen;  // (pid, tid)

  void emit(const std::string& event) {
    out += first ? "\n" : ",\n";
    out += event;
    first = false;
  }

  /// One complete ("X") span event.
  void emit_span(std::int64_t pid, std::int64_t tid, Phase phase,
                 const std::string& label, std::int64_t ts_us,
                 std::int64_t dur_us, std::uint64_t round,
                 const std::string& scheme, std::uint64_t bytes,
                 bool with_tag, std::uint64_t tag) {
    seen.emplace(pid, tid);
    std::string ev = "{\"name\": \"";
    ev += measure::phase_name(phase);
    if (!label.empty()) {
      ev += ':';
      ev += json::escape(label);
    }
    ev += "\", \"cat\": \"";
    ev += measure::phase_name(phase);
    ev += "\", \"ph\": \"X\", \"pid\": " + std::to_string(pid) +
          ", \"tid\": " + std::to_string(tid) +
          ", \"ts\": " + std::to_string(ts_us) +
          ", \"dur\": " + std::to_string(std::max<std::int64_t>(dur_us, 1)) +
          ", \"args\": {\"round\": " + std::to_string(round) +
          ", \"scheme\": \"" + json::escape(scheme) +
          "\", \"bytes\": " + std::to_string(bytes);
    // A string, like in the trace file: tags set bit 63.
    if (with_tag) ev += ", \"tag\": \"" + std::to_string(tag) + "\"";
    ev += "}}";
    emit(ev);
  }

  std::string finish() {
    std::set<std::int64_t> pids;
    for (const auto& [pid, tid] : seen) pids.insert(pid);
    for (std::int64_t pid : pids) {
      emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
           std::to_string(pid) +
           ", \"args\": {\"name\": \"rank " + std::to_string(pid) + "\"}}");
    }
    for (const auto& [pid, tid] : seen) {
      emit("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " +
           std::to_string(pid) + ", \"tid\": " + std::to_string(tid) +
           ", \"args\": {\"name\": \"" + tid_name(tid) + "\"}}");
    }
    out += "\n]}\n";
    return std::move(out);
  }
};

}  // namespace

std::string chrome_trace_json(const measure::RankTrace& rank_trace) {
  // ts 0 is the earliest local instant; the clock model then places each
  // span on the reference timeline, so a synced rank's correction shows.
  double t0 = std::numeric_limits<double>::max();
  for (const RoundTrace& t : rank_trace.traces) {
    for (const TraceSpan& s : t.spans) {
      t0 = std::min(t0, t.epoch_s + s.start_s);
    }
  }

  EventSink sink;
  const measure::ClockModel& clock = rank_trace.clock;
  for (const RoundTrace& t : rank_trace.traces) {
    for (const TraceSpan& s : t.spans) {
      const double start = clock.to_reference(t.epoch_s + s.start_s) - t0;
      const double end = clock.to_reference(t.epoch_s + s.end_s) - t0;
      const bool wire = s.phase == Phase::kSend || s.phase == Phase::kRecv;
      sink.emit_span(s.rank >= 0 ? s.rank : rank_trace.rank,
                     lane_tid(s.phase, s.worker, s.peer), s.phase,
                     s.label != nullptr ? s.label : "", usec(start),
                     usec(end) - usec(start), t.round, t.scheme, s.bytes,
                     wire, s.tag);
    }
  }
  return sink.finish();
}

std::string merged_chrome_trace_json(const measure::MergeResult& merged) {
  EventSink sink;

  double t0 = std::numeric_limits<double>::max();
  for (const measure::MergedRound& round : merged.rounds) {
    for (const MergedSpan& s : round.spans) t0 = std::min(t0, s.start_s);
  }
  if (merged.rounds.empty()) t0 = 0.0;

  int flow_id = 0;
  for (const measure::MergedRound& round : merged.rounds) {
    for (const MergedSpan& s : round.spans) {
      const bool wire = s.phase == Phase::kSend || s.phase == Phase::kRecv;
      sink.emit_span(s.rank, lane_tid(s.phase, s.worker, s.peer), s.phase,
                     s.label, usec(s.start_s - t0),
                     usec(s.end_s - t0) - usec(s.start_s - t0), round.round,
                     round.scheme, s.bytes, wire, s.tag);
    }
    for (const measure::Flow& f : round.flows) {
      const MergedSpan& send =
          round.spans[static_cast<std::size_t>(f.send_index)];
      const MergedSpan& recv =
          round.spans[static_cast<std::size_t>(f.recv_index)];
      const std::string id = std::to_string(flow_id++);
      const std::int64_t s_ts = usec(send.start_s - t0);
      // Never draw an arrow backwards in time: a residual causality
      // violation is reported by the merge stats, not rendered inverted.
      const std::int64_t f_ts = std::max(usec(recv.end_s - t0), s_ts);
      sink.emit(
          "{\"name\": \"wire\", \"cat\": \"flow\", \"ph\": \"s\", \"id\": " +
          id + ", \"pid\": " + std::to_string(send.rank) +
          ", \"tid\": " + std::to_string(lane_tid(send.phase, send.worker,
                                                  send.peer)) +
          ", \"ts\": " + std::to_string(s_ts) + "}");
      sink.emit(
          "{\"name\": \"wire\", \"cat\": \"flow\", \"ph\": \"f\", \"bp\": "
          "\"e\", \"id\": " +
          id + ", \"pid\": " + std::to_string(recv.rank) +
          ", \"tid\": " + std::to_string(lane_tid(recv.phase, recv.worker,
                                                  recv.peer)) +
          ", \"ts\": " + std::to_string(f_ts) + "}");
    }
  }
  return sink.finish();
}

}  // namespace gcs::telemetry
