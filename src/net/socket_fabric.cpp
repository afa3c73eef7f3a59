#include "net/socket_fabric.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "health/heartbeat.h"
#include "net/framing.h"
#include "net/rendezvous.h"
#include "telemetry/flight_recorder.h"

namespace gcs::net {

SocketFabric::SocketFabric(const SocketFabricConfig& config)
    : config_(config) {
  GCS_CHECK(config_.world_size >= 1);
  GCS_CHECK(config_.rank >= 0 && config_.rank < config_.world_size);
  tel_.sent_bytes = telemetry::counter("gcs_net_sent_bytes_total");
  tel_.recv_bytes = telemetry::counter("gcs_net_recv_bytes_total");
  tel_.stale_frames = telemetry::counter("gcs_net_stale_frames_rejected_total");
  tel_.peer_failures = telemetry::counter("gcs_net_peer_failures_total");
  tel_.rebuilds = telemetry::counter("gcs_net_rebuilds_total");
  tel_.epoch = telemetry::gauge("gcs_net_epoch");
  tel_.world = telemetry::gauge("gcs_net_world_size");
  EpochConfig ec;
  ec.rendezvous = Address::parse(config_.rendezvous);
  ec.original_rank = config_.rank;
  ec.max_world = config_.world_size;
  ec.elastic = config_.elastic;
  ec.timeout_ms = config_.connect_timeout_ms;
  ec.window_ms = config_.rejoin_window_ms;
  EpochResult epoch = rendezvous_epoch(ec);
  adopt_epoch(std::move(epoch.peers), std::move(epoch.original_ranks),
              epoch.rank, /*epoch=*/0);
}

SocketFabric::~SocketFabric() { teardown_mesh(); }

void SocketFabric::adopt_epoch(std::vector<Socket> sockets,
                               std::vector<int> original_ranks, int self,
                               std::uint64_t epoch) {
  std::lock_guard mesh_lock(mesh_mu_);
  membership_.epoch = epoch;
  membership_.original_ranks = std::move(original_ranks);
  membership_.self = self;
  const int world = membership_.world_size();
  tel_.epoch.set(static_cast<std::int64_t>(epoch));
  tel_.world.set(world);
  peers_.clear();
  peers_.resize(static_cast<std::size_t>(world));
  // From here on every connection is permanently drained (until the
  // epoch ends).
  reactor_ = std::make_unique<Reactor>();
  for (int r = 0; r < world; ++r) {
    if (r == self) continue;
    // Owned by peers_ before the reactor sees its sink, so the sink
    // outlives the reactor whatever add_channel does.
    auto& p = peers_[static_cast<std::size_t>(r)];
    p = std::make_unique<Peer>();
    // Lane keyed by original rank so the stall report names the same
    // identity across re-rankings as the per-peer byte counters.
    p->lane = health::lane(
        "net.reader",
        membership_.original_ranks[static_cast<std::size_t>(r)]);
    p->sink.fabric = this;
    p->sink.peer = p.get();
    p->sink.rank = r;
    p->sink.epoch = epoch;
    p->channel = reactor_->add_channel(
        std::move(sockets[static_cast<std::size_t>(r)]), &p->sink);
  }
}

void SocketFabric::teardown_mesh() {
  std::lock_guard mesh_lock(mesh_mu_);
  // Joining the loop closes every channel socket — the abort broadcast
  // that wakes survivors blocked anywhere in the old world. The reactor
  // must die before peers_ (sinks point into it).
  reactor_.reset();
  // Whatever is still parked belongs to an aborted round of the closing
  // epoch: stale by definition once the epoch ends.
  std::uint64_t discarded = 0;
  for (auto& p : peers_) {
    if (p != nullptr) discarded += p->buffered;
  }
  {
    std::lock_guard lock(self_mu_);
    discarded += self_buffered_;
    self_by_tag_.clear();
    self_buffered_ = 0;
  }
  peers_.clear();
  {
    std::lock_guard lock(counter_mu_);
    stale_rejected_ += discarded;
  }
  if (discarded != 0) tel_.stale_frames.inc(discarded);
}

comm::Membership SocketFabric::rebuild(std::uint64_t resume_round) {
  if (!config_.elastic) {
    throw Error("SocketFabric::rebuild: elastic membership is off "
                "(construct with SocketFabricConfig::elastic)");
  }
  // Closing every connection is the abort broadcast: survivors blocked in
  // recv anywhere in the old world see EOF, throw PeerFailure and land
  // here themselves — the teardown cascades until every survivor is in
  // the re-rendezvous.
  teardown_mesh();
  const comm::Membership previous = membership_;
  EpochConfig ec;
  ec.rendezvous = Address::parse(config_.rendezvous);
  ec.epoch = previous.epoch + 1;
  ec.original_rank = config_.rank;
  ec.max_world = config_.world_size;
  ec.eligible = previous.original_ranks;
  ec.elastic = true;
  ec.timeout_ms = config_.connect_timeout_ms;
  ec.window_ms = config_.rejoin_window_ms;
  ec.round = resume_round;
  EpochResult epoch = rendezvous_epoch(ec);
  adopt_epoch(std::move(epoch.peers), std::move(epoch.original_ranks),
              epoch.rank, ec.epoch);
  {
    std::lock_guard lock(counter_mu_);
    ++rebuilds_;
  }
  tel_.rebuilds.inc();
  return membership_;
}

std::uint64_t SocketFabric::stale_frames_rejected() const {
  std::lock_guard lock(counter_mu_);
  return stale_rejected_;
}

bool SocketFabric::fail_peer(int original_rank) {
  std::lock_guard mesh_lock(mesh_mu_);
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    if (peers_[r] == nullptr) continue;
    if (r < membership_.original_ranks.size() &&
        membership_.original_ranks[r] == original_rank) {
      // The shutdown is the manufactured EOF: the reactor wakes, marks
      // the channel closed, and the stuck recv throws PeerFailure naming
      // this peer — from where the normal elastic path takes over.
      reactor_->shutdown_channel(peers_[r]->channel);
      return true;
    }
  }
  return false;
}

Reactor::Stats SocketFabric::reactor_stats() const {
  std::lock_guard mesh_lock(mesh_mu_);
  return reactor_ != nullptr ? reactor_->stats() : Reactor::Stats{};
}

void SocketFabric::count_stale_frame() {
  {
    std::lock_guard lock(counter_mu_);
    ++stale_rejected_;
  }
  tel_.stale_frames.inc();
}

void SocketFabric::PeerSink::on_frame(const FrameHeader& header,
                                      ByteBuffer payload) {
  if (header.epoch < epoch) {
    // A straggler of an aborted epoch: reject it — parking it would let
    // a same-tag recv of this epoch mis-deliver old data.
    fabric->count_stale_frame();
    return;
  }
  if (header.epoch > epoch) {
    throw Error("frame from future epoch " + std::to_string(header.epoch) +
                " on an epoch-" + std::to_string(epoch) + " connection");
  }
  if (static_cast<int>(header.src_rank) != rank) {
    throw Error("frame from rank " + std::to_string(header.src_rank) +
                " on the connection to rank " + std::to_string(rank));
  }
  {
    std::lock_guard lock(peer->mu);
    peer->by_tag[header.tag].push_back(std::move(payload));
    ++peer->buffered;
  }
  peer->lane.beat();
  peer->cv.notify_all();
}

void SocketFabric::PeerSink::on_close(const std::string& reason) {
  {
    std::lock_guard lock(peer->mu);
    peer->closed = true;
    peer->close_reason = reason;
  }
  peer->cv.notify_all();
}

SocketFabric::Peer& SocketFabric::peer(int rank) const {
  GCS_CHECK(rank >= 0 && rank < membership_.world_size() &&
            rank != membership_.self);
  return *peers_[static_cast<std::size_t>(rank)];
}

void SocketFabric::send(int src, int dst, std::uint64_t tag,
                        ByteBuffer payload) {
  GCS_CHECK_MSG(src == membership_.self,
                "SocketFabric owns rank " << membership_.self
                                          << ", cannot send as " << src);
  const auto start = tap_ != nullptr ? std::chrono::steady_clock::now()
                                     : std::chrono::steady_clock::time_point{};
  const std::size_t bytes = payload.size();
  if (dst == membership_.self) {
    {
      std::lock_guard lock(self_mu_);
      self_by_tag_[tag].push_back(std::move(payload));
      ++self_buffered_;
    }
    self_cv_.notify_all();
  } else {
    Peer& p = peer(dst);
    try {
      // The reactor serializes per-channel sends itself (frame queue
      // FIFO + coalescing flush); no per-peer send lock needed here.
      reactor_->send(p.channel, static_cast<std::uint32_t>(src),
                     membership_.epoch, tag, std::move(payload));
    } catch (const Error& e) {
      // A write onto a dead peer's connection is the send-side face of
      // the same failure recv sees as EOF.
      note_peer_failure(dst);
      throw comm::PeerFailure(
          "SocketFabric::send to rank " + std::to_string(dst) +
              " failed: " + e.what(),
          dst);
    }
  }
  const int peer_orank =
      membership_.original_ranks[static_cast<std::size_t>(dst)];
  {
    std::lock_guard lock(counter_mu_);
    sent_bytes_ += bytes;
    peer_sent_bytes_[peer_orank] += bytes;
    if (tel_.sent_bytes.live()) {
      PeerTel& pt = peer_tel_[peer_orank];
      if (!pt.sent.live()) {
        pt.sent = telemetry::counter("gcs_net_peer_sent_bytes_total",
                                     telemetry::label_kv("peer", peer_orank));
      }
      pt.sent.inc(bytes);
    }
  }
  tel_.sent_bytes.inc(bytes);
  if (tap_ != nullptr) {
    tap_->on_wire(src, dst, /*is_send=*/true, tag, bytes, start,
                  std::chrono::steady_clock::now());
  }
}

comm::Message SocketFabric::recv(int dst, int src,
                                 std::uint64_t expected_tag) {
  GCS_CHECK_MSG(dst == membership_.self,
                "SocketFabric owns rank " << membership_.self
                                          << ", cannot recv as " << dst);
  const auto start = tap_ != nullptr ? std::chrono::steady_clock::now()
                                     : std::chrono::steady_clock::time_point{};
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(config_.recv_timeout_ms);
  ByteBuffer payload;
  if (src == membership_.self) {
    std::unique_lock lock(self_mu_);
    const bool got = self_cv_.wait_until(lock, deadline, [&] {
      const auto it = self_by_tag_.find(expected_tag);
      return it != self_by_tag_.end() && !it->second.empty();
    });
    if (!got) {
      throw Error("SocketFabric::recv(self) timed out waiting for tag " +
                  std::to_string(expected_tag));
    }
    auto& bucket = self_by_tag_[expected_tag];
    payload = std::move(bucket.front());
    bucket.pop_front();
    --self_buffered_;
  } else {
    Peer& p = peer(src);
    // Armed for the whole blocking window (ArmedScope disarms on the
    // PeerFailure unwind too): a recv waiting on a silent peer is the
    // stall signature the watchdog names.
    health::ArmedScope armed(p.lane);
    std::unique_lock lock(p.mu);
    const bool got = p.cv.wait_until(lock, deadline, [&] {
      const auto it = p.by_tag.find(expected_tag);
      return (it != p.by_tag.end() && !it->second.empty()) || p.closed;
    });
    auto it = p.by_tag.find(expected_tag);
    const bool have = it != p.by_tag.end() && !it->second.empty();
    if (!have) {
      std::ostringstream os;
      os << "SocketFabric::recv at rank " << dst << " from rank " << src
         << " tag " << expected_tag << ": ";
      if (p.closed) {
        os << "connection closed (" << p.close_reason << ")";
      } else {
        os << "timed out after " << config_.recv_timeout_ms << " ms";
      }
      (void)got;
      // Typed as a peer failure either way: an EOF names the peer
      // directly, and a silent timeout is the same condition without the
      // courtesy of a FIN — elastic callers recover from both.
      note_peer_failure(src);
      throw comm::PeerFailure(os.str(), src);
    }
    payload = std::move(it->second.front());
    it->second.pop_front();
    --p.buffered;
  }
  const int peer_orank =
      membership_.original_ranks[static_cast<std::size_t>(src)];
  {
    std::lock_guard lock(counter_mu_);
    received_bytes_ += payload.size();
    peer_recv_bytes_[peer_orank] += payload.size();
    if (tel_.recv_bytes.live()) {
      PeerTel& pt = peer_tel_[peer_orank];
      if (!pt.recv.live()) {
        pt.recv = telemetry::counter("gcs_net_peer_recv_bytes_total",
                                     telemetry::label_kv("peer", peer_orank));
      }
      pt.recv.inc(payload.size());
    }
  }
  tel_.recv_bytes.inc(payload.size());
  if (tap_ != nullptr) {
    tap_->on_wire(dst, src, /*is_send=*/false, expected_tag, payload.size(),
                  start, std::chrono::steady_clock::now());
  }
  return comm::Message{expected_tag, std::move(payload)};
}

void SocketFabric::note_peer_failure(int peer) noexcept {
  {
    std::lock_guard lock(counter_mu_);
    ++peer_failures_;
  }
  tel_.peer_failures.inc();
  // Post-mortem hook: an armed flight recorder dumps its ring on the
  // first failure (rate-limited inside), before the PeerFailure unwinds.
  telemetry::notify_peer_failure(peer);
}

comm::TransportStats SocketFabric::stats(int rank) const {
  GCS_CHECK(rank == membership_.self);
  comm::TransportStats s;
  s.epoch = membership_.epoch;
  std::lock_guard lock(counter_mu_);
  s.bytes_sent = sent_bytes_;
  s.bytes_received = received_bytes_;
  s.stale_frames_rejected = stale_rejected_;
  s.peer_failures = peer_failures_;
  s.rebuilds = rebuilds_;
  // Merge the two per-peer maps; std::map iteration keeps the rows
  // sorted by original rank.
  auto row = [&s](int orank) -> comm::TransportStats::Peer& {
    if (s.peers.empty() || s.peers.back().original_rank != orank) {
      s.peers.push_back({orank, 0, 0});
    }
    return s.peers.back();
  };
  auto sent = peer_sent_bytes_.begin();
  auto recv = peer_recv_bytes_.begin();
  while (sent != peer_sent_bytes_.end() || recv != peer_recv_bytes_.end()) {
    const bool take_sent =
        recv == peer_recv_bytes_.end() ||
        (sent != peer_sent_bytes_.end() && sent->first <= recv->first);
    if (take_sent) {
      row(sent->first).bytes_sent = sent->second;
      ++sent;
    } else {
      row(recv->first).bytes_received = recv->second;
      ++recv;
    }
  }
  return s;
}

std::uint64_t SocketFabric::bytes_sent(int rank) const {
  GCS_CHECK(rank == membership_.self);
  std::lock_guard lock(counter_mu_);
  return sent_bytes_;
}

std::uint64_t SocketFabric::bytes_received(int rank) const {
  GCS_CHECK(rank == membership_.self);
  std::lock_guard lock(counter_mu_);
  return received_bytes_;
}

void SocketFabric::reset_counters() {
  // Same contract as Fabric::reset_counters: undelivered messages mean
  // the caller lost protocol state — fail loudly.
  {
    std::lock_guard lock(self_mu_);
    if (self_buffered_ != 0) {
      throw Error("SocketFabric::reset_counters: " +
                  std::to_string(self_buffered_) +
                  " undelivered loopback message(s)");
    }
  }
  for (int r = 0; r < membership_.world_size(); ++r) {
    if (r == membership_.self) continue;
    Peer& p = peer(r);
    std::lock_guard lock(p.mu);
    if (p.buffered != 0) {
      throw Error("SocketFabric::reset_counters: " +
                  std::to_string(p.buffered) +
                  " unmatched message(s) buffered from rank " +
                  std::to_string(r));
    }
  }
  std::lock_guard lock(counter_mu_);
  sent_bytes_ = 0;
  received_bytes_ = 0;
  peer_sent_bytes_.clear();
  peer_recv_bytes_.clear();
}

}  // namespace gcs::net
