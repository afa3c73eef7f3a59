#include "measure/trace_merge.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/json.h"

namespace gcs::measure {

namespace {

/// Span labels in live traces are static-string const char*; parsed
/// labels come from JSON and must outlive the RoundTrace. The label set
/// is tiny (stage names per scheme), so interning into a process-lifetime
/// pool keeps TraceSpan a plain struct.
const char* intern_label(const std::string& label) {
  if (label.empty()) return "";
  static std::mutex mu;
  static std::set<std::string>* pool = new std::set<std::string>();
  std::lock_guard lock(mu);
  return pool->insert(label).first->c_str();
}

constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();
/// Largest integer a JSON double carries exactly (2^53).
constexpr std::int64_t kMaxExact = std::int64_t{1} << 53;

// ---------------------------------------------------------------- writer

/// The shortest decimal that parses back to exactly `v` — for absolute
/// instants and clock terms, which fixed nanosecond digits would round.
std::string exact(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

std::string clock_to_json(const ClockModel& m) {
  return "{\"offset_s\": " + exact(m.offset_s) +
         ", \"drift\": " + exact(m.drift) +
         ", \"base_local_s\": " + exact(m.base_local_s) +
         ", \"rtt_s\": " + exact(m.rtt_s) + "}";
}

bool is_wire(Phase phase) noexcept {
  return phase == Phase::kSend || phase == Phase::kRecv;
}

/// One round as {"round":..,"scheme":..,"backend":..,"epoch_s":..,
/// "spans":[..]}; `os` carries the fixed 9-digit float format.
void write_round_trace(std::ostream& os, const RoundTrace& t) {
  os << "{\"round\": " << t.round << ", \"scheme\": \""
     << json::escape(t.scheme) << "\", \"backend\": \""
     << json::escape(t.backend) << "\", \"epoch_s\": " << exact(t.epoch_s)
     << ", \"spans\": [";
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const TraceSpan& s = t.spans[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"phase\": \""
       << phase_name(s.phase) << "\"";
    if (s.label != nullptr && s.label[0] != '\0') {
      os << ", \"label\": \"" << json::escape(s.label) << "\"";
    }
    if (s.rank >= 0) os << ", \"rank\": " << s.rank;
    if (s.peer >= 0) os << ", \"peer\": " << s.peer;
    if (s.worker >= 0) os << ", \"worker\": " << s.worker;
    if (is_wire(s.phase)) os << ", \"tag\": \"" << s.tag << "\"";
    os << ", \"bytes\": " << s.bytes << ", \"start_s\": " << s.start_s
       << ", \"end_s\": " << s.end_s << "}";
  }
  os << "\n]}";
}

// ---------------------------------------------------------------- reader

/// One object of a trace document and its path in it ("traces[0]."):
/// every accessor throws gcs::Error naming the offending field.
struct Fields {
  const json::Value& obj;
  std::string path;

  [[noreturn]] void fail(const char* key, const std::string& what) const {
    throw Error("trace_merge: field \"" + path + key + "\" " + what);
  }

  bool has(const char* key) const { return obj.find(key) != nullptr; }

  const json::Value& get(const char* key, json::Value::Kind kind) const {
    const json::Value* v = obj.find(key);
    if (v == nullptr) fail(key, "is missing");
    if (v->kind != kind) fail(key, "has the wrong type");
    return *v;
  }

  double number(const char* key) const {
    return get(key, json::Value::Kind::kNumber).number;
  }

  const std::string& string(const char* key) const {
    return get(key, json::Value::Kind::kString).str;
  }

  /// An integer in [0, hi], range-checked before the cast (an
  /// out-of-range double -> int conversion is undefined).
  std::int64_t integer(const char* key, std::int64_t hi) const {
    const double v = number(key);
    if (!(v >= 0.0 && v <= static_cast<double>(hi)) || v != std::floor(v)) {
      fail(key, "is not an integer in [0, " + std::to_string(hi) +
                    "]: " + exact(v));
    }
    return static_cast<std::int64_t>(v);
  }

  /// An optional rank/peer/worker index; absent means -1 (unset).
  int index_or_unset(const char* key) const {
    return has(key) ? static_cast<int>(integer(key, kMaxInt)) : -1;
  }

  /// Element `i` of the array member `key`, as the next level's Fields.
  Fields item(const char* key, std::size_t i) const {
    return {get(key, json::Value::Kind::kArray).items[i],
            path + key + "[" + std::to_string(i) + "]."};
  }

  /// Length of the array member `key`.
  std::size_t count(const char* key) const {
    return get(key, json::Value::Kind::kArray).items.size();
  }
};

TraceSpan parse_span(const Fields& f) {
  TraceSpan s;
  const std::string& phase = f.string("phase");
  const Phase phases[] = {Phase::kEncode, Phase::kSend,  Phase::kRecv,
                          Phase::kReduce, Phase::kDecode, Phase::kStage,
                          Phase::kRound};
  const auto* it = std::find_if(std::begin(phases), std::end(phases),
                                [&](Phase p) { return phase == phase_name(p); });
  if (it == std::end(phases)) f.fail("phase", "is unknown: '" + phase + "'");
  s.phase = *it;
  if (f.has("label")) s.label = intern_label(f.string("label"));
  s.rank = f.index_or_unset("rank");
  s.peer = f.index_or_unset("peer");
  s.worker = f.index_or_unset("worker");
  if (is_wire(s.phase)) {
    const std::string& tag = f.string("tag");
    const char* end = tag.data() + tag.size();
    const auto [ptr, ec] = std::from_chars(tag.data(), end, s.tag);
    if (ec != std::errc() || ptr != end) {
      f.fail("tag", "is not a decimal uint64: \"" + tag + "\"");
    }
  }
  s.bytes = static_cast<std::uint64_t>(f.integer("bytes", kMaxExact));
  s.start_s = f.number("start_s");
  s.end_s = f.number("end_s");
  if (s.end_s < s.start_s) f.fail("end_s", "precedes start_s");
  return s;
}

RoundTrace parse_round_trace(const Fields& f) {
  RoundTrace t;
  t.round = static_cast<std::uint64_t>(f.integer("round", kMaxExact));
  t.scheme = f.string("scheme");
  t.backend = f.string("backend");
  t.epoch_s = f.number("epoch_s");
  for (std::size_t i = 0; i < f.count("spans"); ++i) {
    t.spans.push_back(parse_span(f.item("spans", i)));
  }
  return t;
}

}  // namespace

std::string rank_trace_to_json(const RankTrace& rank_trace) {
  std::ostringstream os;
  os << std::setprecision(9) << std::fixed;
  os << "{\"rank\": " << rank_trace.rank
     << ", \"clock\": " << clock_to_json(rank_trace.clock);
  if (!rank_trace.dump_reason.empty()) {
    os << ", \"dump_reason\": \"" << json::escape(rank_trace.dump_reason)
       << "\"";
  }
  os << ", \"traces\": [";
  for (std::size_t i = 0; i < rank_trace.traces.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    write_round_trace(os, rank_trace.traces[i]);
  }
  os << "\n]}\n";
  return os.str();
}

RankTrace parse_rank_trace_json(const std::string& text) {
  const json::Value doc = json::parse(text);
  const Fields root{doc, ""};
  RankTrace out;
  out.rank = static_cast<int>(root.integer("rank", kMaxInt));
  const Fields clock{root.get("clock", json::Value::Kind::kObject), "clock."};
  out.clock.rank = out.rank;
  out.clock.offset_s = clock.number("offset_s");
  out.clock.drift = clock.number("drift");
  out.clock.base_local_s = clock.number("base_local_s");
  out.clock.rtt_s = clock.number("rtt_s");
  if (root.has("dump_reason")) out.dump_reason = root.string("dump_reason");
  for (std::size_t i = 0; i < root.count("traces"); ++i) {
    out.traces.push_back(parse_round_trace(root.item("traces", i)));
  }
  return out;
}

int MergeResult::rank_index(int rank) const noexcept {
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (ranks[i] == rank) return static_cast<int>(i);
  }
  return -1;
}

MergeResult merge_rank_traces(const std::vector<RankTrace>& rank_traces,
                              const MergeOptions& options) {
  MergeResult out;
  for (const RankTrace& rt : rank_traces) out.ranks.push_back(rt.rank);
  std::sort(out.ranks.begin(), out.ranks.end());
  out.ranks.erase(std::unique(out.ranks.begin(), out.ranks.end()),
                  out.ranks.end());
  out.shift_s.assign(out.ranks.size(), 0.0);

  // ---- 1. align every span onto the reference timeline ----------------
  std::map<std::uint64_t, MergedRound> rounds;
  for (const RankTrace& rt : rank_traces) {
    for (const RoundTrace& t : rt.traces) {
      MergedRound& mr = rounds[t.round];
      mr.round = t.round;
      if (mr.scheme.empty()) mr.scheme = t.scheme;
      for (const TraceSpan& s : t.spans) {
        MergedSpan m;
        m.rank = rt.rank;
        m.phase = s.phase;
        m.label = s.label != nullptr ? s.label : "";
        m.peer = s.peer;
        m.wire_rank = s.rank;
        m.worker = s.worker;
        m.tag = s.tag;
        m.bytes = s.bytes;
        // epoch_s anchors the round on the rank's raw monotonic clock.
        m.start_s = rt.clock.to_reference(t.epoch_s + s.start_s);
        m.end_s = rt.clock.to_reference(t.epoch_s + s.end_s);
        mr.spans.push_back(std::move(m));
      }
    }
  }

  // ---- 2. pair flows: (src, dst, tag), k-th send <-> k-th recv --------
  // Exact because transport channels are per-(src, dst) FIFO and each
  // (src, dst, tag) stream is issued by one thread in start order.
  using FlowKey = std::tuple<int, int, std::uint64_t>;
  for (auto& [round_num, mr] : rounds) {
    (void)round_num;
    std::map<FlowKey, std::vector<int>> sends;
    std::map<FlowKey, std::vector<int>> recvs;
    for (std::size_t i = 0; i < mr.spans.size(); ++i) {
      const MergedSpan& s = mr.spans[i];
      if (s.phase == Phase::kSend) {
        sends[{s.wire_rank, s.peer, s.tag}].push_back(static_cast<int>(i));
      } else if (s.phase == Phase::kRecv) {
        recvs[{s.peer, s.wire_rank, s.tag}].push_back(static_cast<int>(i));
      }
    }
    const auto by_start = [&mr](int a, int b) {
      return mr.spans[static_cast<std::size_t>(a)].start_s <
             mr.spans[static_cast<std::size_t>(b)].start_s;
    };
    for (auto& [key, send_list] : sends) {
      auto it = recvs.find(key);
      if (it == recvs.end()) continue;
      auto& recv_list = it->second;
      std::stable_sort(send_list.begin(), send_list.end(), by_start);
      std::stable_sort(recv_list.begin(), recv_list.end(), by_start);
      const std::size_t n = std::min(send_list.size(), recv_list.size());
      for (std::size_t k = 0; k < n; ++k) {
        Flow flow;
        flow.send_index = send_list[k];
        flow.recv_index = recv_list[k];
        const int id = static_cast<int>(mr.flows.size());
        mr.spans[static_cast<std::size_t>(flow.send_index)].flow = id;
        mr.spans[static_cast<std::size_t>(flow.recv_index)].flow = id;
        mr.flows.push_back(flow);
      }
    }
    out.flow_count += mr.flows.size();
  }

  // ---- 3. measure violations, repair by per-rank shifts ---------------
  constexpr double kEps = 1e-9;
  struct Constraint {
    int src_ri;
    int dst_ri;
    double min_gap_s;  // shift[dst] - shift[src] >= min_gap_s
  };
  std::vector<Constraint> constraints;
  for (auto& [round_num, mr] : rounds) {
    (void)round_num;
    for (const Flow& f : mr.flows) {
      const MergedSpan& send =
          mr.spans[static_cast<std::size_t>(f.send_index)];
      const MergedSpan& recv =
          mr.spans[static_cast<std::size_t>(f.recv_index)];
      const double gap = send.start_s - recv.end_s;
      if (gap > kEps) {
        ++out.violations_before;
        out.max_violation_before_s =
            std::max(out.max_violation_before_s, gap);
      }
      constraints.push_back(Constraint{out.rank_index(send.rank),
                                       out.rank_index(recv.rank), gap});
    }
  }

  if (options.repair_causality && !constraints.empty()) {
    // Bellman-Ford-style relaxation over the rank-pair difference
    // constraints; |ranks| passes suffice for a consistent system, extra
    // passes change nothing. Same-rank constraints (self-flows) carry no
    // freedom and stay as residuals if violated.
    for (std::size_t pass = 0; pass <= out.ranks.size(); ++pass) {
      bool changed = false;
      for (const Constraint& c : constraints) {
        if (c.src_ri < 0 || c.dst_ri < 0 || c.src_ri == c.dst_ri) continue;
        const double need = out.shift_s[static_cast<std::size_t>(c.src_ri)] +
                            c.min_gap_s;
        double& shift = out.shift_s[static_cast<std::size_t>(c.dst_ri)];
        if (shift < need - kEps) {
          shift = need;
          changed = true;
        }
      }
      if (!changed) break;
    }
    // Normalize so the first (lowest) rank stays fixed — shifts are only
    // meaningful relative to each other.
    const double base = out.shift_s.empty() ? 0.0 : out.shift_s[0];
    for (double& s : out.shift_s) s -= base;
    for (auto& [round_num, mr] : rounds) {
      (void)round_num;
      for (MergedSpan& s : mr.spans) {
        const int ri = out.rank_index(s.rank);
        if (ri < 0) continue;
        s.start_s += out.shift_s[static_cast<std::size_t>(ri)];
        s.end_s += out.shift_s[static_cast<std::size_t>(ri)];
      }
    }
  }

  for (auto& [round_num, mr] : rounds) {
    (void)round_num;
    for (Flow& f : mr.flows) {
      const MergedSpan& send =
          mr.spans[static_cast<std::size_t>(f.send_index)];
      const MergedSpan& recv =
          mr.spans[static_cast<std::size_t>(f.recv_index)];
      f.violation_s = std::max(send.start_s - recv.end_s, 0.0);
      if (f.violation_s > kEps) {
        ++out.violations_after;
        out.max_violation_after_s =
            std::max(out.max_violation_after_s, f.violation_s);
      }
    }
  }

  out.rounds.reserve(rounds.size());
  for (auto& [round_num, mr] : rounds) {
    (void)round_num;
    out.rounds.push_back(std::move(mr));
  }
  return out;
}

}  // namespace gcs::measure
