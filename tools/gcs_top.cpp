// gcs_top — live per-rank view of a running job, and its scrape gate.
//
// Each telemetry-enabled rank (gcs_worker --stats-port=<p>, or any
// process that constructed a telemetry::StatsServer) serves the
// Prometheus text exposition at GET /metrics and, when started with
// --health, the HealthMonitor's one-line JSON summary at GET /health.
// Every tick this tool GETs /metrics and then /health from every target
// and renders one row per rank: the raw counters (rounds, codec and wire
// MiB, stale frames, peer failures, epoch, world) next to the digested
// verdict (status, score, round rate, tx/rx, queue depth, active
// anomalies, watchdog stalls). A rank that serves no /health shows '-' in
// the health columns; an unreachable rank is a DOWN row — a dead rank is
// a finding, not an error.
//
//   gcs_top --targets=127.0.0.1:9200,127.0.0.1:9201     # live table
//   gcs_top --targets=... --once --dump=snapshot.prom
//           --require=gcs_pipeline_rounds_total         # telemetry gate
//   gcs_top --targets=... --once
//           --expect=0:healthy,1:stalled                # health gate
//   gcs_top --targets=... --once --expect-anomaly=2:send_latency:24
//           --expect-clean=0:send_latency               # detector gate
//
// Gating grammar (each flag takes a comma-separated clause list; IDX is
// a position in --targets):
//   --expect=IDX:CLASS       CLASS one of ok|warn|degraded|stalled|down,
//                            or the rollups healthy (= ok|warn) and
//                            unhealthy (= degraded|stalled|down)
//   --expect-anomaly=IDX:SIGNAL[:MAXROUND]
//                            rank IDX must have >=1 detection of SIGNAL;
//                            with MAXROUND, the first detection must have
//                            landed at round <= MAXROUND (latency bound)
//   --expect-clean=IDX:SIGNAL
//                            rank IDX must have zero detections of SIGNAL
//
// Exit status with --once: with any --expect* clause the clauses decide
// (an unreachable target has status down, and a clause on a rank that
// serves no /health fails); without one, every target must answer. Either
// way every answering target's exposition must parse and carry every
// --require family, and a --dump must be written. A malformed target or
// clause exits 1 at startup. The polling mode is a monitor: a target
// that stops answering is retried with exponential backoff (0.5 s
// doubling to a 5 s cap), so restarting a rank mid-watch resumes its row,
// and a failed dump write only warns.
//
// The scrape path is deliberately dependency-free: a hand-rolled HTTP/1.0
// GET over net::connect_to and a line-oriented parse of the text format —
// the same dialect tests/test_telemetry.cpp locks down.
#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/check.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/table.h"
#include "net/socket.h"

namespace {

struct Sample {
  std::string name;    // metric family name
  std::string labels;  // raw label block without braces ("" if none)
  double value = 0.0;
};

/// One anomaly entry as reported by /health.
struct Anomaly {
  std::string signal;
  int peer = -1;
  bool active = false;
  std::uint64_t count = 0;
  std::uint64_t first_round = 0;
};

/// One rank's row: its /metrics exposition and, if it serves one, its
/// /health summary.
struct RankView {
  std::string target;
  bool up = false;  // both GETs completed and /metrics answered 200
  std::string error;
  std::string body;  // raw exposition text
  double duration_ms = 0.0;  // /metrics connect -> body fully read
  bool parse_ok = false;     // every non-comment exposition line parsed
  std::vector<Sample> samples;
  bool has_health = false;  // /health answered 200 with a JSON object
  int rank = -1;
  std::string status;  // ok|warn|degraded|stalled
  double score = 0.0;
  double round_rate_hz = 0.0;
  double tx_bytes_per_s = 0.0;
  double rx_bytes_per_s = 0.0;
  std::int64_t queue_depth = 0;
  std::uint64_t stalls_total = 0;
  std::vector<std::string> active_stalls;  // "lane(peer N)"
  std::vector<Anomaly> anomalies;
};

struct HttpResponse {
  int status = 0;
  std::string body;
};

/// One HTTP/1.0 GET of `path` against `addr` (`target` is its
/// "host:port" text). Throws gcs::Error on connect/read failure or a
/// malformed response; any status code is returned to the caller.
HttpResponse http_get(const std::string& target, const gcs::net::Address& addr,
                      const std::string& path, int timeout_ms) {
  gcs::net::Socket sock = gcs::net::connect_to(addr, timeout_ms);
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: " + target + "\r\n\r\n";
  sock.write_all(request.data(), request.size());

  // Read to EOF: the server closes after one response (HTTP/1.0).
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::read(sock.fd(), buf, sizeof(buf));
    if (got < 0) {
      if (errno == EINTR) continue;
      throw gcs::Error("read from " + target + " failed: " +
                       std::strerror(errno));
    }
    if (got == 0) break;
    response.append(buf, static_cast<std::size_t>(got));
  }

  HttpResponse out;
  const auto space = response.find(' ');
  const auto blank = response.find("\r\n\r\n");
  if (space == std::string::npos || blank == std::string::npos ||
      std::sscanf(response.c_str() + space, " %d", &out.status) != 1) {
    throw gcs::Error(target + path + " sent a malformed response");
  }
  out.body = response.substr(blank + 4);
  return out;
}

/// Parses one exposition body into samples. Returns false if any
/// non-comment, non-blank line failed to parse (the samples that did
/// parse are still kept).
bool parse_exposition(const std::string& body, std::vector<Sample>* out) {
  bool all_ok = true;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;

    // "name{labels} value" or "name value".
    const auto space = line.rfind(' ');
    if (space == std::string::npos || space == 0) {
      all_ok = false;
      continue;
    }
    Sample s;
    std::string key = line.substr(0, space);
    const std::string value_text = line.substr(space + 1);
    const auto brace = key.find('{');
    if (brace != std::string::npos) {
      if (key.back() != '}') {
        all_ok = false;
        continue;
      }
      s.labels = key.substr(brace + 1, key.size() - brace - 2);
      key = key.substr(0, brace);
    }
    s.name = key;
    try {
      std::size_t used = 0;
      s.value = std::stod(value_text, &used);
      if (used != value_text.size()) {
        all_ok = false;
        continue;
      }
    } catch (const std::exception&) {
      all_ok = false;
      continue;
    }
    out->push_back(std::move(s));
  }
  return all_ok;
}

/// Fills the health fields of `v` from one /health JSON document.
void read_health(const gcs::json::Value& doc, RankView* v) {
  if (!doc.is_object()) throw gcs::Error("health body is not an object");
  v->rank = static_cast<int>(doc.num_or("rank", -1));
  v->status = doc.str_or("status", "?");
  v->score = doc.num_or("score", 0.0);
  v->round_rate_hz = doc.num_or("round_rate_hz", 0.0);
  v->tx_bytes_per_s = doc.num_or("tx_bytes_per_s", 0.0);
  v->rx_bytes_per_s = doc.num_or("rx_bytes_per_s", 0.0);
  v->queue_depth = static_cast<std::int64_t>(doc.num_or("queue_depth", 0));
  if (const gcs::json::Value* wd = doc.find("watchdog")) {
    v->stalls_total = static_cast<std::uint64_t>(wd->num_or("stalls_total", 0));
    if (const gcs::json::Value* active = wd->find("active");
        active != nullptr && active->is_array()) {
      for (const auto& stall : active->items) {
        const int peer = static_cast<int>(stall.num_or("peer", -1));
        std::string desc = stall.str_or("lane", "?");
        if (peer >= 0) desc += "(peer " + std::to_string(peer) + ")";
        v->active_stalls.push_back(std::move(desc));
      }
    }
  }
  if (const gcs::json::Value* anomalies = doc.find("anomalies");
      anomalies != nullptr && anomalies->is_array()) {
    for (const auto& a : anomalies->items) {
      Anomaly entry;
      entry.signal = a.str_or("signal", "?");
      entry.peer = static_cast<int>(a.num_or("peer", -1));
      entry.active = a.find("active") != nullptr && a.find("active")->boolean;
      entry.count = static_cast<std::uint64_t>(a.num_or("count", 0));
      entry.first_round =
          static_cast<std::uint64_t>(a.num_or("first_round", 0));
      v->anomalies.push_back(std::move(entry));
    }
  }
  v->has_health = true;
}

RankView scrape(const std::string& target, const gcs::net::Address& addr,
                int timeout_ms) {
  RankView v;
  v.target = target;
  const auto start = std::chrono::steady_clock::now();
  try {
    HttpResponse metrics = http_get(target, addr, "/metrics", timeout_ms);
    if (metrics.status != 200) {
      throw gcs::Error(target + "/metrics answered " +
                       std::to_string(metrics.status));
    }
    v.duration_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    v.body = std::move(metrics.body);
    v.parse_ok = parse_exposition(v.body, &v.samples);
    // Any non-200 /health (the server's 503 without a health provider)
    // means the rank runs without the health plane.
    const HttpResponse health = http_get(target, addr, "/health", timeout_ms);
    if (health.status == 200) read_health(gcs::json::parse(health.body), &v);
    v.up = true;
  } catch (const std::exception& e) {
    v.error = e.what();
  }
  return v;
}

/// Per-target reconnect state for the polling mode. A target that stops
/// answering is not scraped on every tick — consecutive failures double
/// the retry delay from 500 ms up to a 5 s cap, so a watch session over
/// a half-dead job does not spend its whole interval in connect
/// timeouts. Any successful scrape resets the backoff.
struct Backoff {
  int failures = 0;
  std::chrono::steady_clock::time_point next_attempt{};

  bool should_attempt(std::chrono::steady_clock::time_point now) const {
    return failures == 0 || now >= next_attempt;
  }
  void on_failure(std::chrono::steady_clock::time_point now) {
    constexpr int kBaseMs = 500;
    constexpr int kCapMs = 5000;
    const int shift = failures < 4 ? failures : 4;  // 500ms << 4 > cap
    const int delay_ms = std::min(kBaseMs << shift, kCapMs);
    ++failures;
    next_attempt = now + std::chrono::milliseconds(delay_ms);
  }
  void on_success() {
    failures = 0;
    next_attempt = {};
  }
};

/// The unlabelled sample of `name` if there is one (gauges and plain
/// counters), else the sum over every label combination, else 0.
double value_of(const RankView& v, const std::string& name) {
  double total = 0.0;
  for (const auto& sample : v.samples) {
    if (sample.name != name) continue;
    if (sample.labels.empty()) return sample.value;
    total += sample.value;
  }
  return total;
}

std::string fmt_mib(double bytes) {
  return gcs::format_fixed(bytes / (1024.0 * 1024.0), 2);
}

/// "send_latency(p2)x3* queue_wait x1" — '*' marks a currently-active
/// detection, the count is total detections so far.
std::string summarize_anomalies(const RankView& v) {
  std::string out;
  for (const auto& a : v.anomalies) {
    if (a.count == 0) continue;
    if (!out.empty()) out += ' ';
    out += a.signal;
    if (a.peer >= 0) out += "(p" + std::to_string(a.peer) + ")";
    out += "x" + std::to_string(a.count);
    if (a.active) out += '*';
  }
  return out.empty() ? "-" : out;
}

std::string summarize_watchdog(const RankView& v) {
  if (v.stalls_total == 0) return "-";
  std::string out = std::to_string(v.stalls_total);
  for (const auto& stall : v.active_stalls) out += " " + stall;
  return out;
}

void render_table(const std::vector<RankView>& views, bool clear_screen) {
  const std::vector<std::string> header = {
      "rank",     "target",   "status",    "score",    "rounds",
      "rate/s",   "enc MiB",  "dec MiB",   "sent MiB", "recv MiB",
      "tx MiB/s", "rx MiB/s", "queue",     "stale",    "peer fail",
      "epoch",    "world",    "anomalies", "watchdog"};
  gcs::AsciiTable table(header);
  for (std::size_t i = 0; i < views.size(); ++i) {
    const RankView& v = views[i];
    const std::string rank = std::to_string(
        v.has_health && v.rank >= 0 ? v.rank : static_cast<int>(i));
    if (!v.up) {
      std::vector<std::string> row(header.size(), "-");
      row[0] = rank;
      row[1] = v.target;
      row[2] = "DOWN";
      table.add_row(row);
      continue;
    }
    // The health columns read '-' on a rank without the health plane.
    const auto health = [&](std::string text) {
      return v.has_health ? text : std::string("-");
    };
    const auto count = [&](const char* name) {
      return gcs::format_fixed(value_of(v, name), 0);
    };
    const auto mib = [&](const char* name) {
      return fmt_mib(value_of(v, name));
    };
    table.add_row({rank,
                   v.target,
                   health(v.status),
                   health(gcs::format_fixed(v.score, 1)),
                   count("gcs_pipeline_rounds_total"),
                   health(gcs::format_fixed(v.round_rate_hz, 1)),
                   mib("gcs_codec_encode_bytes_total"),
                   mib("gcs_codec_decode_bytes_total"),
                   mib("gcs_net_sent_bytes_total"),
                   mib("gcs_net_recv_bytes_total"),
                   health(fmt_mib(v.tx_bytes_per_s)),
                   health(fmt_mib(v.rx_bytes_per_s)),
                   health(std::to_string(v.queue_depth)),
                   count("gcs_net_stale_frames_rejected_total"),
                   count("gcs_net_peer_failures_total"),
                   count("gcs_net_epoch"),
                   count("gcs_net_world_size"),
                   health(summarize_anomalies(v)),
                   health(summarize_watchdog(v))});
  }
  if (clear_screen) std::cout << "\033[2J\033[H";
  std::cout << table.to_string() << std::flush;
}

/// One parsed --expect / --expect-anomaly / --expect-clean clause.
struct Expectation {
  enum class Kind { kStatus, kAnomaly, kClean } kind = Kind::kStatus;
  std::size_t index = 0;        // position in --targets
  std::string what;             // status class or signal name
  std::uint64_t max_round = 0;  // kAnomaly: latency bound; 0 = unbounded
};

/// Parses all of `text` as a decimal number, or throws a usage error
/// naming the clause.
std::uint64_t parse_number(const std::string& text, const char* what,
                           const std::string& flag, const std::string& spec) {
  std::uint64_t out = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size()) {
    throw gcs::Error(flag + "='" + spec + "': bad " + what + " '" + text +
                     "'");
  }
  return out;
}

Expectation parse_expectation(const std::string& spec, Expectation::Kind kind,
                              const std::string& flag, std::size_t targets) {
  Expectation e;
  e.kind = kind;
  const auto first = spec.find(':');
  if (first == std::string::npos) {
    throw gcs::Error(flag + "='" + spec + "' is not IDX:VALUE");
  }
  e.index = parse_number(spec.substr(0, first), "rank index", flag, spec);
  if (e.index >= targets) {
    throw gcs::Error(flag + "='" + spec + "' names rank index " +
                     std::to_string(e.index) + " but only " +
                     std::to_string(targets) + " targets are given");
  }
  e.what = spec.substr(first + 1);
  if (kind == Expectation::Kind::kAnomaly) {
    const auto second = e.what.find(':');
    if (second != std::string::npos) {
      e.max_round =
          parse_number(e.what.substr(second + 1), "max round", flag, spec);
      e.what.resize(second);
    }
  }
  static const std::set<std::string> kClasses = {
      "ok", "warn", "degraded", "stalled", "down", "healthy", "unhealthy"};
  if (e.what.empty() ||
      (kind == Expectation::Kind::kStatus && kClasses.count(e.what) == 0)) {
    throw gcs::Error(flag + "='" + spec + "' names no valid value");
  }
  return e;
}

/// True when the scraped status satisfies the expected class.
bool status_matches(const std::string& got, const std::string& want) {
  if (want == "healthy") return got == "ok" || got == "warn";
  if (want == "unhealthy") {
    return got == "degraded" || got == "stalled" || got == "down";
  }
  return got == want;
}

/// Evaluates one expectation; returns "" when it holds, else the failure.
std::string check_expectation(const Expectation& e,
                              const std::vector<RankView>& views) {
  const RankView& v = views[e.index];
  const std::string who =
      "rank " + std::to_string(e.index) + " (" + v.target + ")";
  if (!v.up) {
    if (e.kind == Expectation::Kind::kStatus) {
      return status_matches("down", e.what)
                 ? ""
                 : who + ": expected status '" + e.what + "', got 'down'";
    }
    return who + ": expected '" + e.what + "' but target is down";
  }
  if (!v.has_health) {
    return who + ": serves no /health; start the rank with --health";
  }
  switch (e.kind) {
    case Expectation::Kind::kStatus:
      if (status_matches(v.status, e.what)) return "";
      return who + ": expected status '" + e.what + "', got '" + v.status +
             "'";
    case Expectation::Kind::kAnomaly:
      for (const auto& a : v.anomalies) {
        if (a.signal != e.what || a.count == 0) continue;
        if (e.max_round != 0 && a.first_round > e.max_round) {
          return who + ": anomaly '" + e.what + "' first fired at round " +
                 std::to_string(a.first_round) + ", bound was round " +
                 std::to_string(e.max_round);
        }
        return "";
      }
      return who + ": expected anomaly '" + e.what + "' never detected";
    case Expectation::Kind::kClean:
      for (const auto& a : v.anomalies) {
        if (a.signal == e.what && a.count > 0) {
          return who + ": expected zero '" + e.what + "' detections, found " +
                 std::to_string(a.count);
        }
      }
      return "";
  }
  return "";  // unreachable
}

/// Writes every answering target's exposition, concatenated, behind
/// provenance headers: which target each block came from, how long the
/// scrape took, and a monotonic sequence number so successive dumps of a
/// polling session are orderable after the fact.
bool write_dump(const std::string& path, const std::vector<RankView>& views,
                std::uint64_t seq) {
  std::ofstream dump(path, std::ios::trunc);
  dump << "# gcs_top dump seq: " << seq << "\n";
  for (const auto& v : views) {
    char duration[32];
    std::snprintf(duration, sizeof(duration), "%.3f", v.duration_ms);
    dump << "# gcs_top target: " << v.target << "\n"
         << "# gcs_top scrape duration_ms: " << duration << "\n"
         << v.body;
  }
  return static_cast<bool>(dump);
}

/// The --once verdict; prints every failure to stderr.
bool once_verdict(const std::vector<RankView>& views,
                  const std::vector<Expectation>& expectations,
                  const std::vector<std::string>& required) {
  std::vector<std::string> failures;
  for (const auto& e : expectations) {
    if (std::string f = check_expectation(e, views); !f.empty()) {
      failures.push_back("GATE FAIL: " + f);
    }
  }
  for (const auto& v : views) {
    if (!v.up) {
      if (expectations.empty()) failures.push_back(v.target + " is down");
      continue;
    }
    if (!v.parse_ok) {
      failures.push_back(v.target + ": exposition did not parse cleanly");
    }
    std::set<std::string> families;
    for (const auto& sample : v.samples) families.insert(sample.name);
    for (const auto& need : required) {
      // A histogram family exposes name_bucket/_sum/_count.
      if (families.count(need) == 0 && families.count(need + "_bucket") == 0) {
        failures.push_back(v.target + ": required family '" + need +
                           "' missing");
      }
    }
  }
  for (const auto& f : failures) std::cerr << "gcs_top: " << f << "\n";
  if (!expectations.empty()) {
    std::cout << (failures.empty() ? "gcs_top: all gates passed\n"
                                   : "gcs_top: gates FAILED\n");
  }
  return failures.empty();
}

void print_usage() {
  std::cout <<
      "gcs_top: live per-rank view over /metrics and /health endpoints\n"
      "  --targets=<h:p,...>      endpoints to poll (required)\n"
      "  --interval-ms=<t>        polling period (default 1000)\n"
      "  --timeout-ms=<t>         per-request timeout (default 2000)\n"
      "  --once                   scrape once, evaluate gates, exit\n"
      "  --no-clear               do not clear the screen between refreshes\n"
      "  --require=<m,...>        gate: metric families every answering\n"
      "                           target must expose\n"
      "  --dump=<path>            write the raw exposition text of every\n"
      "                           target (concatenated; '# gcs_top'\n"
      "                           provenance headers carry target, scrape\n"
      "                           duration and a dump sequence number)\n"
      "  --expect=IDX:CLASS,...   gate: rank IDX status must match CLASS\n"
      "                           (ok|warn|degraded|stalled|down|healthy|\n"
      "                           unhealthy); comma-separated clause list\n"
      "  --expect-anomaly=IDX:SIGNAL[:MAXROUND]\n"
      "                           gate: rank IDX detected SIGNAL (first\n"
      "                           detection at or before round MAXROUND)\n"
      "  --expect-clean=IDX:SIGNAL\n"
      "                           gate: rank IDX has zero SIGNAL detections\n"
      "  --expect* clauses need ranks started with --health.\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    gcs::CliFlags flags(argc, argv);
    if (flags.help_requested()) {
      print_usage();
      return 0;
    }
    const std::vector<std::string> targets =
        gcs::split_csv(flags.get_string("targets", ""));
    const int interval_ms =
        static_cast<int>(flags.get_int("interval-ms", 1000));
    const int timeout_ms = static_cast<int>(flags.get_int("timeout-ms", 2000));
    const bool once = flags.get_bool("once", false);
    const bool no_clear = flags.get_bool("no-clear", false);
    const std::vector<std::string> required =
        gcs::split_csv(flags.get_string("require", ""));
    const std::string dump_path = flags.get_string("dump", "");
    using Kind = Expectation::Kind;
    const std::pair<const char*, Kind> clause_flags[] = {
        {"expect", Kind::kStatus},
        {"expect-anomaly", Kind::kAnomaly},
        {"expect-clean", Kind::kClean}};
    std::vector<std::string> clauses;
    for (const auto& [flag, kind] : clause_flags) {
      clauses.push_back(flags.get_string(flag, ""));
    }
    flags.reject_unknown();
    if (targets.empty()) {
      print_usage();
      std::cerr << "gcs_top: --targets is required\n";
      return 1;
    }
    // Every target and clause is validated once, up front: a malformed
    // one is a usage error, not a DOWN row retried forever or a gate that
    // checks some other rank.
    std::vector<gcs::net::Address> addrs;
    for (const auto& target : targets) {
      addrs.push_back(gcs::net::Address::parse("tcp:" + target));
    }
    std::vector<Expectation> expectations;
    for (std::size_t f = 0; f < clauses.size(); ++f) {
      const auto& [flag, kind] = clause_flags[f];
      for (const auto& spec : gcs::split_csv(clauses[f])) {
        expectations.push_back(parse_expectation(
            spec, kind, std::string("--") + flag, targets.size()));
      }
    }

    std::vector<Backoff> backoffs(targets.size());
    for (std::uint64_t tick = 0;; ++tick) {
      const auto now = std::chrono::steady_clock::now();
      std::vector<RankView> views;
      for (std::size_t i = 0; i < targets.size(); ++i) {
        // --once always attempts: a one-shot gate must report reality,
        // not a cached backoff verdict.
        if (!once && !backoffs[i].should_attempt(now)) {
          RankView skipped;
          skipped.target = targets[i];
          skipped.error = targets[i] + " down, backing off before reconnect";
          views.push_back(std::move(skipped));
          continue;
        }
        views.push_back(scrape(targets[i], addrs[i], timeout_ms));
        if (views.back().up) {
          backoffs[i].on_success();
        } else {
          backoffs[i].on_failure(now);
        }
      }

      render_table(views, /*clear_screen=*/!once && !no_clear);
      for (const auto& v : views) {
        if (!v.up) std::cerr << "gcs_top: " << v.error << "\n";
      }
      // Fatal only as a one-shot gate; a polling session keeps watching
      // (the disk filling up should not end the watch).
      const bool dumped =
          dump_path.empty() || write_dump(dump_path, views, tick);
      if (!dumped) {
        std::cerr << "gcs_top: failed to write " << dump_path << "\n";
      }

      if (once) {
        return once_verdict(views, expectations, required) && dumped ? 0 : 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  } catch (const std::exception& e) {
    std::cerr << "gcs_top: " << e.what() << "\n";
    return 1;
  }
}
