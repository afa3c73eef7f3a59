// Cross-rank trace merging — one globally-aligned timeline out of
// per-rank RoundTrace streams (DESIGN.md "Analysis layer") — and the one
// on-disk trace format, RankTrace, whose only writer and only reader
// live in this module.
//
// Each rank records spans against its own recorder epoch on its own
// monotonic clock. Merging does three things:
//
//   1. Alignment: every span's (epoch_s + start_s) local instant is
//      mapped onto rank 0's reference timeline through the rank's
//      ClockModel (measure/clock_sync.h).
//   2. Flow pairing: every kSend span is matched with the kRecv span
//      that consumed the same message — key (src, dst, tag), paired in
//      start order, which is exact because transport channels are
//      per-(src, dst) FIFO. Flows are what make wire causality visible
//      (Chrome flow events) and what the critical-path DAG's cross-rank
//      edges are built from.
//   3. Causality validation/repair: alignment error (clock sync is only
//      rtt/2-accurate) can make an effect precede its cause — a recv
//      ending before its send started. Merge measures every flow's
//      violation and, when repair is on, solves the difference
//      constraints  shift[dst] - shift[src] >= send.start - recv.end
//      by relaxation, nudging whole ranks (never individual spans, so
//      intra-rank ordering is preserved exactly) by the minimum shifts
//      that restore order. Residual violations (inconsistent cycles)
//      are reported, not hidden — gcs_analyze --gate fails on them.
//
// The merged rounds are consumed by measure/critical_path.h and by the
// flow-annotated Chrome exporter (telemetry/chrome_trace.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure/clock_sync.h"
#include "measure/trace.h"

namespace gcs::measure {

/// One rank's trace stream plus the clock model that places it on the
/// reference timeline — the unit every trace writer puts on disk
/// (gcs_worker --trace, gcs_driver, flight-recorder dumps) and gcs_analyze
/// loads back.
struct RankTrace {
  int rank = 0;          ///< origin rank (merged-timeline pid)
  ClockModel clock;      ///< identity when never synced
  std::vector<RoundTrace> traces;
  std::string dump_reason;  ///< non-empty when from a flight-recorder dump
};

/// The rank-trace file format:
///   {"rank":R, "clock":{"offset_s","drift","base_local_s","rtt_s"},
///    ["dump_reason":".."], "traces":[{"round","scheme","backend",
///    "epoch_s", "spans":[{"phase", ["label"], ["rank"], ["peer"],
///    ["worker"], ["tag"], "bytes", "start_s", "end_s"}]}]}
/// Bracketed keys are omitted at their defaults ("tag" is present exactly
/// on send/recv spans). Span times have fixed nanosecond digits; epoch_s
/// and the clock terms are written exactly. `tag` is a decimal string:
/// collective tags set bit 63, which a JSON double cannot carry.
std::string rank_trace_to_json(const RankTrace& rank_trace);

/// Parses a rank_trace_to_json document — the only shape accepted. Input
/// comes from disk, so it is validated: a missing required key, a
/// non-integral or out-of-range integer, an unknown phase or a span
/// ending before it starts throws gcs::Error naming the field.
RankTrace parse_rank_trace_json(const std::string& text);

/// One span on the merged reference timeline.
struct MergedSpan {
  int rank = 0;  ///< origin rank of the recording process
  Phase phase = Phase::kRound;
  std::string label;
  int peer = -1;    ///< wire peer (current-epoch rank, as recorded)
  int wire_rank = -1;  ///< wire src/dst (current-epoch rank, as recorded)
  int worker = -1;
  std::uint64_t tag = 0;
  std::uint64_t bytes = 0;
  double start_s = 0.0;  ///< reference timeline
  double end_s = 0.0;
  int flow = -1;  ///< index into MergedRound::flows; -1 = unmatched
};

/// A matched send/recv pair (indices into MergedRound::spans).
struct Flow {
  int send_index = -1;
  int recv_index = -1;
  /// How far the recv's end precedes the send's start on the aligned
  /// timeline (positive = causality violated), after repair.
  double violation_s = 0.0;
};

struct MergedRound {
  std::uint64_t round = 0;
  std::string scheme;
  std::vector<MergedSpan> spans;
  std::vector<Flow> flows;
};

struct MergeOptions {
  /// Solve the per-rank shift constraints; off = report raw alignment.
  bool repair_causality = true;
};

struct MergeResult {
  std::vector<MergedRound> rounds;   ///< ascending round number
  std::vector<int> ranks;            ///< sorted origin ranks
  std::vector<double> shift_s;       ///< repair shift per ranks[] entry
  std::size_t flow_count = 0;
  std::size_t violations_before = 0;
  std::size_t violations_after = 0;
  double max_violation_before_s = 0.0;
  double max_violation_after_s = 0.0;

  int rank_index(int rank) const noexcept;
};

/// Merges per-rank streams into aligned rounds (matched by round
/// number). Rounds missing on some ranks merge what exists.
MergeResult merge_rank_traces(const std::vector<RankTrace>& rank_traces,
                              const MergeOptions& options = {});

}  // namespace gcs::measure
