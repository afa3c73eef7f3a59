// Chrome trace-event export of measurement-layer round traces.
//
// A pure export: it renders a RankTrace (the one on-disk trace format,
// measure/trace_merge.h) or a merged multi-rank timeline into the Chrome
// trace-event JSON format, loadable in chrome://tracing, Perfetto and
// catapult. Nothing reads these files back. The mapping makes a
// multi-rank aggregation read like a profiled program:
//
//   pid — the rank a span executed on: span.rank for wire spans, else the
//         RankTrace's rank (pipeline spans are recorded unattributed).
//         Each pid gets a process_name metadata record "rank N".
//   tid — a synthetic lane per concurrent actor inside the rank:
//           0             pipeline (round/stage/reduce/decode envelopes)
//           1 + worker    encode worker lanes (worker -1 = the caller)
//           100 + 2*peer  wire send lane towards `peer`
//           101 + 2*peer  wire recv lane from `peer`
//         so nested pipeline phases stack on lane 0 while per-peer wire
//         traffic and pool workers render as parallel tracks.
//   ts  — microseconds. Every span sits at its real instant: epoch_s +
//         start_s on the rank's monotonic clock, mapped through the
//         trace's ClockModel (the identity when never synced). ts 0 is the
//         trace's earliest local instant, so an unsynced export starts at
//         0, rounds keep their true spacing, and a synced rank's export
//         carries its clock correction as a visible shift.
//
// Every span becomes one complete ("X") event carrying round / scheme /
// bytes / tag in args. merged_chrome_trace_json additionally emits one
// flow-event pair ("ph":"s"/"f") per matched send/recv, drawing the wire
// causality arrows across rank pids.
#pragma once

#include <string>

#include "measure/trace_merge.h"

namespace gcs::telemetry {

/// Renders one rank's trace as a Chrome trace-event JSON document
/// ({"traceEvents":[...]}) on its clock-mapped timeline.
std::string chrome_trace_json(const measure::RankTrace& rank_trace);

/// Flow-annotated export of a merged multi-rank timeline (ts 0 is its
/// earliest span): every merged span is an "X" event under its origin
/// rank's pid, and every matched
/// flow becomes a "s"/"f" pair (binding point "e") from the send span to
/// its recv — the causality arrows in chrome://tracing. Flow finish
/// timestamps are clamped to never precede their start (residual
/// violations are the merge result's to report, not the viewer's to
/// render backwards).
std::string merged_chrome_trace_json(const measure::MergeResult& merged);

}  // namespace gcs::telemetry
