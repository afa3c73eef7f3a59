// Tests for telemetry/flight_recorder: the bounded ring, the loadable
// post-mortem dump (including the in-flight partial round), dump-file
// writing with rate limiting, and the peer-failure process hook that
// net/socket_fabric fires on comm::PeerFailure.
#include "telemetry/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "measure/trace_merge.h"

namespace gcs::telemetry {
namespace {

namespace fs = std::filesystem;

measure::TraceSpan make_span(measure::Phase phase, double start_s,
                             double end_s) {
  measure::TraceSpan s;
  s.phase = phase;
  s.start_s = start_s;
  s.end_s = end_s;
  s.bytes = 32;
  return s;
}

/// Creates (and empties) a scratch directory under the test's cwd.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path("flight_test_tmp") / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::size_t json_files_in(const fs::path& dir) {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".json") ++n;
  }
  return n;
}

TEST(FlightRecorder, RingStaysBoundedAndKeepsTheMostRecentRounds) {
  FlightRecorderOptions o;
  o.ring_rounds = 3;
  o.rank = 5;
  FlightRecorder fr(o);
  for (std::uint64_t r = 0; r < 7; ++r) {
    fr.recorder().record(make_span(measure::Phase::kEncode, 0.0, 1e-3));
    fr.commit_round(r, "test", "local");
  }

  EXPECT_EQ(fr.rounds_seen(), 7u);
  EXPECT_EQ(fr.ring_size(), 3u);

  // The dump carries exactly the retained rounds — the most recent ones.
  const measure::RankTrace loaded =
      measure::parse_rank_trace_json(fr.build_dump_json("test"));
  EXPECT_EQ(loaded.rank, 5);
  EXPECT_EQ(loaded.dump_reason, "test");
  ASSERT_EQ(loaded.traces.size(), 3u);
  std::vector<std::uint64_t> rounds;
  for (const measure::RoundTrace& t : loaded.traces) {
    rounds.push_back(t.round);
  }
  EXPECT_EQ(rounds, (std::vector<std::uint64_t>{4, 5, 6}));
}

TEST(FlightRecorder, DumpIncludesThePartialInFlightRound) {
  FlightRecorderOptions o;
  o.rank = 1;
  FlightRecorder fr(o);
  fr.recorder().record(make_span(measure::Phase::kEncode, 0.0, 1e-3));
  fr.commit_round(0, "test", "local");
  // A span recorded but never committed: the round that was in flight
  // when the process died. It must appear in the dump.
  fr.recorder().record(make_span(measure::Phase::kSend, 2e-3, 3e-3));

  const measure::RankTrace loaded =
      measure::parse_rank_trace_json(fr.build_dump_json("crash"));
  ASSERT_EQ(loaded.traces.size(), 2u);
  EXPECT_EQ(loaded.traces[0].scheme, "test");
  EXPECT_EQ(loaded.traces[1].scheme, "(in-flight)");
  ASSERT_EQ(loaded.traces[1].spans.size(), 1u);
  EXPECT_EQ(loaded.traces[1].spans[0].phase, measure::Phase::kSend);
}

TEST(FlightRecorder, DumpIsAPlainRankTrace) {
  // A dump is a RankTrace with a dump_reason, nothing more: it survives a
  // parse/write round trip byte for byte through the one reader/writer.
  FlightRecorderOptions o;
  o.rank = 3;
  FlightRecorder fr(o);
  measure::ClockModel clock = measure::ClockModel::identity(3);
  clock.offset_s = -2.5e-4;
  clock.drift = 1e-6;
  fr.set_clock(clock);
  measure::RoundTrace done;
  done.round = 7;
  done.scheme = "topkc:b=8";
  done.epoch_s = 1000.25;
  done.spans.push_back(make_span(measure::Phase::kSend, 0.0, 1e-3));
  done.spans[0].tag = (std::uint64_t{1} << 63) | 5;
  fr.observe(done);
  // The in-flight round rides along with the recorder's real epoch.
  fr.recorder().record(make_span(measure::Phase::kRecv, 2e-3, 3e-3));

  const std::string dump = fr.build_dump_json("watchdog:\"stall\"");
  const measure::RankTrace loaded = measure::parse_rank_trace_json(dump);
  EXPECT_EQ(loaded.dump_reason, "watchdog:\"stall\"");
  ASSERT_EQ(loaded.traces.size(), 2u);
  EXPECT_EQ(loaded.traces[0].spans.at(0).tag, done.spans[0].tag);
  EXPECT_EQ(measure::rank_trace_to_json(loaded), dump);
}

TEST(FlightRecorder, DumpWritesLoadableFileAndRateLimits) {
  const fs::path dir = scratch_dir("rate_limit");
  FlightRecorderOptions o;
  o.rank = 2;
  o.dump_dir = dir.string();
  o.min_dump_interval_s = 3600.0;  // one dump per incident, period
  FlightRecorder fr(o);
  fr.recorder().record(make_span(measure::Phase::kEncode, 0.0, 1e-3));
  fr.commit_round(0, "test", "local");

  const std::string path = fr.dump("first");
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("gcs_flight.rank2."), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const measure::RankTrace loaded = measure::parse_rank_trace_json(body);
  EXPECT_EQ(loaded.rank, 2);
  EXPECT_EQ(loaded.dump_reason, "first");

  // Within the interval a second incident is swallowed: no new file.
  EXPECT_TRUE(fr.dump("second").empty());
  EXPECT_EQ(json_files_in(dir), 1u);
  fs::remove_all(dir.parent_path());
}

TEST(FlightRecorder, PeerFailureNotificationDumpsThroughProcessHooks) {
  const fs::path dir = scratch_dir("peer_failure");
  FlightRecorderOptions o;
  o.rank = 0;
  o.dump_dir = dir.string();
  o.min_dump_interval_s = 0.0;  // let every notification through
  FlightRecorder fr(o);
  fr.recorder().record(make_span(measure::Phase::kRecv, 0.0, 1e-3));

  // Unarmed: the hook is a no-op.
  notify_peer_failure(3);
  EXPECT_EQ(json_files_in(dir), 0u);

  FlightRecorder::arm_process_hooks(&fr);
  EXPECT_EQ(FlightRecorder::process_instance(), &fr);
  notify_peer_failure(3);
  ASSERT_EQ(json_files_in(dir), 1u);
  for (const auto& e : fs::directory_iterator(dir)) {
    std::ifstream in(e.path());
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const measure::RankTrace loaded = measure::parse_rank_trace_json(body);
    EXPECT_EQ(loaded.dump_reason, "peer_failure:rank3");
  }

  // Disarmed: silence again.
  FlightRecorder::arm_process_hooks(nullptr);
  notify_peer_failure(4);
  EXPECT_EQ(json_files_in(dir), 1u);
  fs::remove_all(dir.parent_path());
}

}  // namespace
}  // namespace gcs::telemetry
