// Tests for measure/trace_merge and measure/critical_path: rank-trace
// round-tripping, flow pairing, the causality-repair property (no flow
// may finish before it starts after merge), and critical-path
// attribution on hand-built DAGs with known answers.
#include "measure/trace_merge.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "measure/critical_path.h"
#include "telemetry/chrome_trace.h"

namespace gcs::measure {
namespace {

TraceSpan span(Phase phase, double start_s, double end_s, int rank = -1,
               int peer = -1, std::uint64_t tag = 0) {
  TraceSpan s;
  s.phase = phase;
  s.rank = rank;
  s.peer = peer;
  s.tag = tag;
  s.bytes = 64;
  s.start_s = start_s;
  s.end_s = end_s;
  return s;
}

RankTrace rank_trace(int rank, double epoch_s, std::vector<TraceSpan> spans,
                     ClockModel clock = {}) {
  RankTrace rt;
  rt.rank = rank;
  rt.clock = clock;
  rt.clock.rank = rank;
  RoundTrace t;
  t.round = 0;
  t.scheme = "test";
  t.backend = "socket";
  t.epoch_s = epoch_s;
  t.spans = std::move(spans);
  rt.traces.push_back(std::move(t));
  return rt;
}

// ------------------------------------------------------- serialization

TEST(RankTraceJson, ExtendedFormatRoundTrips) {
  ClockModel clock;
  clock.offset_s = -0.125;
  clock.drift = 2.5e-5;
  clock.base_local_s = 100.0;
  clock.rtt_s = 3e-6;
  RankTrace rt = rank_trace(
      2, 1234.5,
      {span(Phase::kEncode, 0.0, 1e-3),
       span(Phase::kSend, 1e-3, 2e-3, 2, 0, 77)},
      clock);
  rt.traces[0].spans[0].label = "stage0";
  // Strings go through the shared escaper, control characters included.
  rt.traces[0].scheme = "topk:\"q\"\\\n\x01";
  rt.dump_reason = "signal:\t\x1f";

  const RankTrace back = parse_rank_trace_json(rank_trace_to_json(rt));
  EXPECT_EQ(back.rank, 2);
  EXPECT_EQ(back.dump_reason, rt.dump_reason);
  EXPECT_DOUBLE_EQ(back.clock.offset_s, -0.125);
  EXPECT_DOUBLE_EQ(back.clock.drift, 2.5e-5);
  EXPECT_DOUBLE_EQ(back.clock.rtt_s, 3e-6);
  ASSERT_EQ(back.traces.size(), 1u);
  EXPECT_DOUBLE_EQ(back.traces[0].epoch_s, 1234.5);
  EXPECT_EQ(back.traces[0].scheme, rt.traces[0].scheme);
  ASSERT_EQ(back.traces[0].spans.size(), 2u);
  EXPECT_STREQ(back.traces[0].spans[0].label, "stage0");
  EXPECT_EQ(back.traces[0].spans[1].phase, Phase::kSend);
  EXPECT_EQ(back.traces[0].spans[1].peer, 0);
  EXPECT_EQ(back.traces[0].spans[1].tag, 77u);
  EXPECT_DOUBLE_EQ(back.traces[0].spans[1].start_s, 1e-3);
}

TEST(RankTraceJson, CollectiveTagsRoundTripExactly) {
  // Chunked-collective tags set bit 63; as JSON doubles they would lose
  // their low 11 bits and distinct tags would share one flow key.
  constexpr std::uint64_t kHigh = std::uint64_t{1} << 63;
  const RankTrace rt = rank_trace(
      0, 1.0, {span(Phase::kSend, 0.0, 1e-3, 0, 1, kHigh | 1),
               span(Phase::kRecv, 0.0, 1e-3, 0, 1, kHigh | 2)});
  const RankTrace back = parse_rank_trace_json(rank_trace_to_json(rt));
  ASSERT_EQ(back.traces.at(0).spans.size(), 2u);
  EXPECT_EQ(back.traces[0].spans[0].tag, kHigh | 1);
  EXPECT_EQ(back.traces[0].spans[1].tag, kHigh | 2);
}

TEST(RankTraceJson, MalformedDocumentsThrow) {
  const std::string good = R"({"rank": 1, "clock": {"offset_s": 0, )"
      R"("drift": 0, "base_local_s": 0, "rtt_s": 0}, "traces": [{"round": 3,)"
      R"( "scheme": "s", "backend": "b", "epoch_s": 1, "spans": [{"phase": )"
      R"("recv", "rank": 0, "peer": 2, "worker": 4, "tag": "5", "bytes": 8, )"
      R"("start_s": 0.0001, "end_s": 0.0005}]}]})";
  ASSERT_NO_THROW(parse_rank_trace_json(good));
  // Each case edits `good` once; the error must name the edited field.
  const struct {
    const char* from;
    const char* to;
    const char* field;
  } cases[] = {
      {R"("rank": 1, )", "", R"("rank")"},
      {R"("clock")", R"("clock_")", R"("clock")"},
      {R"("traces")", R"("traces_")", R"("traces")"},
      {R"("phase": "recv", )", "", "spans[0].phase"},
      {R"("tag": "5", )", "", "spans[0].tag"},
      {R"("rank": 1)", R"("rank": "1")", R"("rank")"},
      {R"("rank": 1)", R"("rank": 1.5)", R"("rank")"},
      {R"("rank": 1)", R"("rank": -1)", R"("rank")"},
      {R"("rank": 0)", R"("rank": -2)", "spans[0].rank"},
      {R"("peer": 2)", R"("peer": 3000000000)", "spans[0].peer"},
      {R"("worker": 4)", R"("worker": 4.5)", "spans[0].worker"},
      {R"("round": 3)", R"("round": -1)", "traces[0].round"},
      {R"("bytes": 8)", R"("bytes": 1e300)", "spans[0].bytes"},
      {R"("bytes": 8)", R"("bytes": 8.25)", "spans[0].bytes"},
      {R"("tag": "5")", R"("tag": 5)", "spans[0].tag"},
      {R"("tag": "5")", R"("tag": "-1")", "spans[0].tag"},
      {R"("tag": "5")", R"("tag": "18446744073709551616")", "spans[0].tag"},
      {R"("phase": "recv")", R"("phase": "nap")", "spans[0].phase"},
      {R"("start_s": 0.0001, "end_s": 0.0005)",
       R"("start_s": 0.0005, "end_s": 0.0001)", "spans[0].end_s"},
  };
  std::vector<std::pair<std::string, std::string>> inputs = {
      {"not json", "json"},
      {R"({"rank": 1})", R"("clock")"},
      // The two retired shapes: a bare traces list and the old
      // flight-recorder bundle.
      {R"({"traces": [{"round": 0, "scheme": "s", "spans": []}]})",
       R"("rank")"},
      {R"({"flight_recorder": {"rank": 1, "traces": []}})", R"("rank")"},
  };
  for (const auto& c : cases) {
    std::string text = good;
    const auto at = text.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.from;
    inputs.emplace_back(text.replace(at, std::strlen(c.from), c.to), c.field);
  }
  for (const auto& [text, field] : inputs) {
    try {
      (void)parse_rank_trace_json(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what() << "\n  for: " << text;
    }
  }
}

// --------------------------------------------------------- flow pairing

TEST(TraceMerge, PairsSendsWithRecvsInFifoOrder) {
  // Rank 1 sends twice to rank 0 on the same tag; FIFO channels mean
  // k-th send matches k-th recv in start order.
  RankTrace sender = rank_trace(
      1, 10.0,
      {span(Phase::kSend, 1e-3, 2e-3, 1, 0, 5),
       span(Phase::kSend, 3e-3, 4e-3, 1, 0, 5)});
  RankTrace receiver = rank_trace(
      0, 10.0,
      {span(Phase::kRecv, 1e-3, 2.5e-3, 0, 1, 5),
       span(Phase::kRecv, 3e-3, 4.5e-3, 0, 1, 5)});

  const MergeResult merged = merge_rank_traces({sender, receiver});
  ASSERT_EQ(merged.rounds.size(), 1u);
  EXPECT_EQ(merged.flow_count, 2u);
  EXPECT_EQ(merged.violations_before, 0u);
  for (const Flow& f : merged.rounds[0].flows) {
    const MergedSpan& send =
        merged.rounds[0].spans[static_cast<std::size_t>(f.send_index)];
    const MergedSpan& recv =
        merged.rounds[0].spans[static_cast<std::size_t>(f.recv_index)];
    EXPECT_EQ(send.phase, Phase::kSend);
    EXPECT_EQ(recv.phase, Phase::kRecv);
    EXPECT_EQ(send.rank, 1);
    EXPECT_EQ(recv.rank, 0);
    // FIFO pairing: matched spans share their position in start order.
    EXPECT_NEAR(recv.start_s - send.start_s, 0.0, 1e-9);
  }
}

TEST(TraceMerge, RepairsCausalityAndFlowsNeverFinishBeforeTheyStart) {
  // Rank 1's clock is 5 ms ahead (a sync error far beyond any honest
  // rtt): aligned naively, rank 0's recv ends before rank 1's send
  // starts. Repair must shift ranks so every flow is causal, and the
  // shift must be reported.
  ClockModel wrong;
  wrong.offset_s = 5e-3;  // claims local + 5 ms = reference
  RankTrace sender = rank_trace(
      1, 10.0, {span(Phase::kSend, 1e-3, 2e-3, 1, 0, 5)}, wrong);
  RankTrace receiver = rank_trace(
      0, 10.0, {span(Phase::kRecv, 1e-3, 2.5e-3, 0, 1, 5)});

  const MergeResult merged = merge_rank_traces({sender, receiver});
  EXPECT_EQ(merged.flow_count, 1u);
  EXPECT_EQ(merged.violations_before, 1u);
  EXPECT_NEAR(merged.max_violation_before_s, 3.5e-3, 1e-6);
  // The property under test: after repair no flow finishes before it
  // starts.
  EXPECT_EQ(merged.violations_after, 0u);
  for (const MergedRound& round : merged.rounds) {
    for (const Flow& f : round.flows) {
      const MergedSpan& send =
          round.spans[static_cast<std::size_t>(f.send_index)];
      const MergedSpan& recv =
          round.spans[static_cast<std::size_t>(f.recv_index)];
      EXPECT_GE(recv.end_s + 1e-9, send.start_s);
    }
  }
  // Normalization pins the lowest rank: shift[0] == 0 exactly, and the
  // constraint shift[0] - shift[1] >= 3.5ms resolves as rank 1 pulled
  // 3.5 ms back in time.
  const int r0 = merged.rank_index(0);
  const int r1 = merged.rank_index(1);
  ASSERT_GE(r0, 0);
  ASSERT_GE(r1, 0);
  EXPECT_EQ(merged.shift_s[static_cast<std::size_t>(r0)], 0.0);
  EXPECT_NEAR(merged.shift_s[static_cast<std::size_t>(r1)], -3.5e-3, 1e-6);

  // Repair off: the violation must be reported, not hidden.
  MergeOptions raw;
  raw.repair_causality = false;
  const MergeResult unrepaired =
      merge_rank_traces({sender, receiver}, raw);
  EXPECT_EQ(unrepaired.violations_after, 1u);

  // And the Chrome exporter never draws a flow arrow backwards even on
  // the unrepaired timeline.
  const std::string chrome =
      telemetry::merged_chrome_trace_json(unrepaired);
  EXPECT_NE(chrome.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"f\""), std::string::npos);
}

// ------------------------------------------------------- critical path

/// Two ranks, one flow, fully contiguous path:
///   rank 1: encode [0, 10ms] -> send [10, 12ms]
///   rank 0: recv [11, 20ms] (gated by the send) -> reduce [20, 25ms]
///           -> decode [25, 30ms]
MergedRound known_dag() {
  MergedRound mr;
  mr.round = 0;
  auto add = [&mr](int rank, Phase phase, double a, double b, int wire = -1,
                   int peer = -1, std::uint64_t tag = 0) {
    MergedSpan s;
    s.rank = rank;
    s.phase = phase;
    s.wire_rank = wire;
    s.peer = peer;
    s.tag = tag;
    s.start_s = a;
    s.end_s = b;
    mr.spans.push_back(s);
  };
  add(1, Phase::kEncode, 0.000, 0.010);
  add(1, Phase::kSend, 0.010, 0.012, 1, 0, 9);
  add(0, Phase::kRecv, 0.011, 0.020, 0, 1, 9);
  add(0, Phase::kReduce, 0.020, 0.025);
  add(0, Phase::kDecode, 0.025, 0.030);
  Flow f;
  f.send_index = 1;
  f.recv_index = 2;
  mr.spans[1].flow = 0;
  mr.spans[2].flow = 0;
  mr.flows.push_back(f);
  return mr;
}

TEST(CriticalPath, WalksKnownDagAndAttributesEveryBucket) {
  const MergedRound mr = known_dag();
  const RoundReport report = analyze_round(mr, {0, 1});

  EXPECT_NEAR(report.makespan_s, 0.030, 1e-9);
  // The path is contiguous from encode start to decode end.
  EXPECT_NEAR(report.critical_path_s, 0.030, 1e-9);
  // encode 10ms + reduce 5ms + decode 5ms = compute; send 2ms + gated
  // part of the recv [12, 20ms] = wire.
  EXPECT_NEAR(report.bucket_s[static_cast<std::size_t>(CostBucket::kCompute)],
              0.020, 1e-9);
  EXPECT_NEAR(report.bucket_s[static_cast<std::size_t>(CostBucket::kWire)],
              0.010, 1e-9);
  EXPECT_NEAR(report.bucket_s[static_cast<std::size_t>(CostBucket::kStall)],
              0.0, 1e-9);
  // rank 0 owns recv tail + reduce + decode = 18ms; rank 1 owns encode +
  // send = 12ms.
  ASSERT_EQ(report.ranks.size(), 2u);
  EXPECT_NEAR(report.rank_attributed_s[0], 0.018, 1e-9);
  EXPECT_NEAR(report.rank_attributed_s[1], 0.012, 1e-9);
  EXPECT_EQ(report.straggler, 0);
  EXPECT_NEAR(report.straggler_share, 0.018 / 0.030, 1e-6);
  // rank 1 finished its last span at 12ms; 18ms of slack against the
  // 30ms makespan. rank 0 finished last: zero slack.
  EXPECT_NEAR(report.rank_slack_s[0], 0.0, 1e-9);
  EXPECT_NEAR(report.rank_slack_s[1], 0.018, 1e-9);
  // Cause -> effect ordering of the emitted segments.
  for (std::size_t i = 1; i < report.segments.size(); ++i) {
    EXPECT_GE(report.segments[i].start_s + 1e-9,
              report.segments[i - 1].end_s - 1e-9);
  }
}

TEST(CriticalPath, SchedulingGapBecomesStallOnTheLateRank) {
  // Same DAG, but rank 1 goes idle for 28 ms between finishing its
  // encode and starting its send — the delayed-straggler signature.
  MergedRound mr;
  mr.round = 1;
  auto add = [&mr](int rank, Phase phase, double a, double b, int wire = -1,
                   int peer = -1, std::uint64_t tag = 0) {
    MergedSpan s;
    s.rank = rank;
    s.phase = phase;
    s.wire_rank = wire;
    s.peer = peer;
    s.tag = tag;
    s.start_s = a;
    s.end_s = b;
    mr.spans.push_back(s);
  };
  add(1, Phase::kEncode, 0.000, 0.010);
  add(1, Phase::kSend, 0.038, 0.040, 1, 0, 9);
  add(0, Phase::kRecv, 0.011, 0.045, 0, 1, 9);
  add(0, Phase::kDecode, 0.045, 0.050);
  Flow f;
  f.send_index = 1;
  f.recv_index = 2;
  mr.spans[1].flow = 0;
  mr.spans[2].flow = 0;
  mr.flows.push_back(f);

  const RoundReport report = analyze_round(mr, {0, 1});
  // The 28 ms gap [10, 38ms] is a stall attributed to rank 1 — the rank
  // that was late, not the rank that waited.
  EXPECT_NEAR(report.bucket_s[static_cast<std::size_t>(CostBucket::kStall)],
              0.028, 1e-9);
  EXPECT_EQ(report.straggler, 1);
  EXPECT_GT(report.straggler_share, 0.5);
  bool found_stall = false;
  for (const PathSegment& seg : report.segments) {
    if (seg.bucket == CostBucket::kStall) {
      found_stall = true;
      EXPECT_EQ(seg.rank, 1);
      EXPECT_EQ(seg.span_index, -1);
    }
  }
  EXPECT_TRUE(found_stall);
}

TEST(CriticalPath, ConcurrentSendsIntoOneDestinationCountAsIncastWait) {
  // Ranks 1 and 2 both send into rank 0; rank 2's send covers the whole
  // gated window of the flow-1 recv, so that wire time is incast wait.
  MergedRound mr;
  mr.round = 2;
  auto add = [&mr](int rank, Phase phase, double a, double b, int wire = -1,
                   int peer = -1, std::uint64_t tag = 0) {
    MergedSpan s;
    s.rank = rank;
    s.phase = phase;
    s.wire_rank = wire;
    s.peer = peer;
    s.tag = tag;
    s.start_s = a;
    s.end_s = b;
    mr.spans.push_back(s);
  };
  add(1, Phase::kSend, 0.000, 0.002, 1, 0, 9);
  add(2, Phase::kSend, 0.000, 0.030, 2, 0, 11);
  add(0, Phase::kRecv, 0.002, 0.020, 0, 1, 9);
  add(0, Phase::kDecode, 0.020, 0.035);
  Flow f;
  f.send_index = 0;
  f.recv_index = 2;
  mr.spans[0].flow = 0;
  mr.spans[2].flow = 0;
  mr.flows.push_back(f);

  const RoundReport report = analyze_round(mr, {0, 1, 2});
  const double incast =
      report.bucket_s[static_cast<std::size_t>(CostBucket::kIncastWait)];
  // The recv's gated window [2, 20ms] is fully shadowed by rank 2's
  // concurrent send into the same destination (18 ms), and the flow-1
  // send itself [0, 2ms] is shadowed too — 20 ms of incast wait total.
  EXPECT_NEAR(incast, 0.020, 1e-9);
}

TEST(CriticalPath, SummaryAggregatesRoundsAndNamesOverallStraggler) {
  RankTrace sender = rank_trace(
      1, 10.0,
      {span(Phase::kEncode, 0.0, 0.010), span(Phase::kSend, 0.030, 0.032, 1, 0, 5)});
  RankTrace receiver = rank_trace(
      0, 10.0,
      {span(Phase::kRecv, 0.001, 0.033, 0, 1, 5),
       span(Phase::kDecode, 0.033, 0.035)});
  const MergeResult merged = merge_rank_traces({sender, receiver});
  const AnalysisSummary summary = analyze(merged);
  ASSERT_EQ(summary.rounds.size(), 1u);
  EXPECT_EQ(summary.straggler, 1);  // 20 ms stall before its send
  EXPECT_GT(summary.straggler_share, 0.5);
  EXPECT_GT(summary.critical_path_s, 0.0);
  double bucket_total = 0.0;
  for (double b : summary.bucket_s) bucket_total += b;
  EXPECT_NEAR(bucket_total, summary.critical_path_s, 1e-9);
}

}  // namespace
}  // namespace gcs::measure
