// Outside-in layer timing for bench_e2e.
//
// Every per-layer number comes from timing calls into a layer's public
// interface from outside the library: TimedCodec/TimedRound decorate the
// codec handed to core::AggregationPipeline, TimedTransport decorates the
// transport its aggregate_over runs on. Nothing under src/ is touched.
//
// One rank's round splits, following the pipeline's call order
// (core/aggregation_pipeline.cpp, aggregate_over), into
//   begin   SchemeCodec::begin_round
//   stage   from next_stage() returning true to the next next_stage() call
//   commit  from next_stage() returning false to finish() — the elastic
//           commit barrier; transport calls in this window are its own
//   finish  CodecRound::finish
//   glue    the round minus the four windows above
// so the parts tile the round exactly. Inside stage windows the rank
// thread's children are encode(), transport send/recv and absorb; what is
// left is the collective's own time (reduce folds, copies, chunk
// bookkeeping, waits for the encode pool). Encodes on other threads are
// the encode pool's; the part of them that overlaps the rank thread's
// transport calls is "hidden".
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/transport_decorators.h"
#include "core/codec.h"

namespace gcs::bench::e2e {

using Clock = std::chrono::steady_clock;

inline double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Sums over traced rounds (seconds, counts) for one rank and scheme, or
/// summed over ranks.
struct LayerTotals {
  std::uint64_t rounds = 0;
  double round = 0, begin = 0, stage = 0, commit = 0, finish = 0, glue = 0;
  double encode_self = 0;  ///< rank's own payload, rank thread
  double encode_peer = 0;  ///< other workers' payloads, any thread
  double pool_encode = 0;  ///< the part of encode_peer run off the rank thread
  double hidden = 0;       ///< pool encode overlapping rank transport calls
  double absorb = 0, send = 0, recv = 0, collective = 0;
  std::uint64_t msgs = 0;        ///< collective sends (stage windows)
  std::uint64_t wire_bytes = 0;  ///< payload bytes sent, commit included

  void add(const LayerTotals& o) {
    rounds += o.rounds;
    round += o.round, begin += o.begin, stage += o.stage;
    commit += o.commit, finish += o.finish, glue += o.glue;
    encode_self += o.encode_self, encode_peer += o.encode_peer;
    pool_encode += o.pool_encode, hidden += o.hidden;
    absorb += o.absorb, send += o.send, recv += o.recv;
    collective += o.collective;
    msgs += o.msgs, wire_bytes += o.wire_bytes;
  }
};

/// One rank's record of the traced round in flight. The decorators feed
/// it; everything but on_encode runs on the rank thread.
class RoundClock {
 public:
  bool active() const noexcept { return active_; }

  /// Arms the clock (rank thread, right before the aggregate call).
  void start(Clock::time_point t) {
    active_ = true;
    ok_ = true;
    began_ = finished_ = false;
    window_ = Window::kNone;
    start_ = t;
    cur_ = LayerTotals{};
    children_ = 0;
    net_.clear();
    pool_.clear();
  }

  /// Closes the round at `t` (right after the aggregate call returns) and
  /// adds it to `into`. Returns false when the calls did not arrive in
  /// the pipeline's order or a part came out negative — the tiling
  /// identity then does not hold and the round is not added.
  bool stop(Clock::time_point t, LayerTotals& into) {
    active_ = false;
    cur_.rounds = 1;
    cur_.round = secs(t - start_);
    cur_.glue = cur_.round - cur_.begin - cur_.stage - cur_.commit -
                cur_.finish;
    cur_.collective = cur_.stage - children_;
    cur_.encode_peer += cur_.pool_encode;
    cur_.hidden = hidden_time();
    if (!ok_ || !began_ || !finished_ || cur_.glue < 0 ||
        cur_.collective < 0) {
      return false;
    }
    into.add(cur_);
    return true;
  }

  void on_begin(Clock::time_point s, Clock::time_point e) {
    ok_ &= !began_ && window_ == Window::kNone;
    began_ = true;
    cur_.begin += secs(e - s);
  }

  void on_next_stage(Clock::time_point enter, Clock::time_point exit,
                     bool more) {
    ok_ &= began_ && window_ != Window::kCommit;
    if (window_ == Window::kStage) cur_.stage += secs(enter - open_);
    window_ = more ? Window::kStage : Window::kCommit;
    open_ = exit;
  }

  void on_finish(Clock::time_point s, Clock::time_point e) {
    ok_ &= window_ == Window::kCommit && !finished_;
    cur_.commit += secs(s - open_);
    cur_.finish += secs(e - s);
    window_ = Window::kNone;
    finished_ = true;
  }

  void on_encode(bool rank_thread, bool self, Clock::time_point s,
                 Clock::time_point e) {
    const double d = secs(e - s);
    if (rank_thread) {
      ok_ &= window_ == Window::kStage;
      children_ += d;
      (self ? cur_.encode_self : cur_.encode_peer) += d;
      return;
    }
    std::lock_guard<std::mutex> lock(pool_mu_);
    cur_.pool_encode += d;
    pool_.emplace_back(s, e);
  }

  void on_absorb(Clock::time_point s, Clock::time_point e) {
    ok_ &= window_ == Window::kStage;
    children_ += secs(e - s);
    cur_.absorb += secs(e - s);
  }

  void on_transport(bool is_send, std::size_t bytes, Clock::time_point s,
                    Clock::time_point e) {
    if (is_send) cur_.wire_bytes += bytes;
    if (window_ == Window::kCommit) return;  // the commit barrier's
    ok_ &= window_ == Window::kStage;
    const double d = secs(e - s);
    children_ += d;
    if (is_send) {
      cur_.send += d;
      ++cur_.msgs;
    } else {
      cur_.recv += d;
    }
    net_.emplace_back(s, e);
  }

 private:
  enum class Window { kNone, kStage, kCommit };
  using Interval = std::pair<Clock::time_point, Clock::time_point>;

  /// Pool encode time overlapping the rank thread's transport calls. The
  /// transport intervals come from one thread, so they are sorted and
  /// disjoint.
  double hidden_time() const {
    double hidden = 0;
    for (const auto& [a, b] : pool_) {
      for (const auto& [s, e] : net_) {
        if (e <= a) continue;
        if (s >= b) break;
        hidden += secs(std::min(b, e) - std::max(a, s));
      }
    }
    return hidden;
  }

  bool active_ = false;
  bool ok_ = true, began_ = false, finished_ = false;
  Window window_ = Window::kNone;
  Clock::time_point start_, open_;
  LayerTotals cur_;
  double children_ = 0;  ///< rank-thread child calls inside stage windows
  std::vector<Interval> net_;
  std::mutex pool_mu_;  ///< guards pool_ and the pool fields of cur_
  std::vector<Interval> pool_;
};

/// CodecRound decorator: times every call and reports it to the clock.
class TimedRound final : public core::CodecRound {
 public:
  TimedRound(std::unique_ptr<core::CodecRound> inner, RoundClock& clock,
             int rank)
      : inner_(std::move(inner)),
        clock_(clock),
        rank_(rank),
        rank_thread_(std::this_thread::get_id()) {}

  bool next_stage(core::WireStage& stage) override {
    const auto enter = Clock::now();
    const bool more = inner_->next_stage(stage);
    clock_.on_next_stage(enter, Clock::now(), more);
    return more;
  }

  ByteBuffer encode(int worker) override {
    const auto s = Clock::now();
    ByteBuffer out = inner_->encode(worker);
    clock_.on_encode(on_rank_thread(), worker == rank_, s, Clock::now());
    return out;
  }

  bool supports_encode_range() const override {
    return inner_->supports_encode_range();
  }

  void encode_range(int worker, std::size_t offset,
                    std::span<std::byte> out) override {
    const auto s = Clock::now();
    inner_->encode_range(worker, offset, out);
    clock_.on_encode(on_rank_thread(), worker == rank_, s, Clock::now());
  }

  void absorb_reduced(const ByteBuffer& reduced) override {
    const auto s = Clock::now();
    inner_->absorb_reduced(reduced);
    clock_.on_absorb(s, Clock::now());
  }

  void absorb_gathered(std::span<const ByteBuffer> payloads) override {
    const auto s = Clock::now();
    inner_->absorb_gathered(payloads);
    clock_.on_absorb(s, Clock::now());
  }

  void finish(std::span<float> out, core::RoundStats& stats) override {
    const auto s = Clock::now();
    inner_->finish(out, stats);
    clock_.on_finish(s, Clock::now());
  }

 private:
  bool on_rank_thread() const {
    return std::this_thread::get_id() == rank_thread_;
  }

  std::unique_ptr<core::CodecRound> inner_;
  RoundClock& clock_;
  const int rank_;
  const std::thread::id rank_thread_;
};

/// SchemeCodec decorator: while the clock is armed, times begin_round and
/// wraps the session in a TimedRound; otherwise hands out the plain
/// session, so untraced rounds run the undecorated codec path.
class TimedCodec final : public core::SchemeCodec {
 public:
  TimedCodec(core::SchemeCodecPtr inner, RoundClock& clock, int rank)
      : inner_(std::move(inner)), clock_(clock), rank_(rank) {}

  std::string name() const override { return inner_->name(); }
  core::AggregationPath path() const override { return inner_->path(); }
  int world_size() const override { return inner_->world_size(); }
  std::size_t dimension() const override { return inner_->dimension(); }
  void reset() override { inner_->reset(); }

  std::unique_ptr<core::CodecRound> begin_round(
      std::span<const std::span<const float>> grads,
      std::uint64_t round) override {
    if (!clock_.active()) return inner_->begin_round(grads, round);
    const auto s = Clock::now();
    auto session = inner_->begin_round(grads, round);
    clock_.on_begin(s, Clock::now());
    return std::make_unique<TimedRound>(std::move(session), clock_, rank_);
  }

 private:
  core::SchemeCodecPtr inner_;
  RoundClock& clock_;
  const int rank_;
};

/// Transport decorator: while the clock is armed, times every send/recv
/// of the owning rank (recv time includes the wait for the frame).
class TimedTransport final : public comm::ForwardingTransport {
 public:
  TimedTransport(comm::Transport& inner, RoundClock& clock)
      : ForwardingTransport(inner), clock_(clock) {}

  void send(int src, int dst, std::uint64_t tag,
            ByteBuffer payload) override {
    if (!clock_.active()) {
      ForwardingTransport::send(src, dst, tag, std::move(payload));
      return;
    }
    const std::size_t bytes = payload.size();
    const auto s = Clock::now();
    ForwardingTransport::send(src, dst, tag, std::move(payload));
    clock_.on_transport(true, bytes, s, Clock::now());
  }

  comm::Message recv(int dst, int src, std::uint64_t tag) override {
    if (!clock_.active()) return ForwardingTransport::recv(dst, src, tag);
    const auto s = Clock::now();
    comm::Message m = ForwardingTransport::recv(dst, src, tag);
    clock_.on_transport(false, m.payload.size(), s, Clock::now());
    return m;
  }

 private:
  RoundClock& clock_;
};

}  // namespace gcs::bench::e2e
