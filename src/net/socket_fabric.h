// Real-socket Transport: one endpoint per OS process.
//
// SocketFabric implements comm::Transport over TCP or Unix-domain sockets
// so the chunked hop-interleaved collectives run unmodified across
// processes and hosts. Construction performs the full-mesh rendezvous
// (net/rendezvous.h) and then hands every peer connection to ONE epoll
// loop (net/reactor.h) that drains them into the tag-indexed reassembly
// buckets: O(1) I/O threads per process regardless of world size,
// zero-copy readv reassembly, coalescing writev sends. This is what makes
// hundred-rank worlds affordable (bench/world_scaling.cpp).
//
// Every connection is permanently drained (no cross-rank send/recv
// deadlock — a blocked writer always has a draining reader on the other
// end) and interleaved chunk streams can be received in whatever order
// the collective asks for.
//
// Semantics vs the in-process Fabric:
//   * recv matches by (peer, tag). Where Fabric throws on a tag mismatch
//     at the queue head, SocketFabric buffers the frame and keeps
//     waiting — a genuinely wrong tag surfaces as a timeout or a
//     peer-exit error rather than a head-of-line inspection, because
//     frames from concurrently in-flight chunks may legally arrive ahead
//     of the one being waited on.
//   * recv never hangs: a peer that exits (EOF), a torn frame, or a
//     deadline (`recv_timeout_ms`) all throw — specifically
//     comm::PeerFailure, so elastic callers can catch exactly the
//     failure class that membership recovery repairs.
//   * Only the local rank is owned: send's src, recv's dst and counter
//     queries must name it.
//
// Elastic membership (config.elastic, DESIGN.md "Fault tolerance"): the
// fabric tracks a comm::Membership — an epoch counter plus the original
// (epoch-0) rank of every current rank. Every frame is stamped with the
// sender's epoch; a frame from an older epoch is *rejected* on arrival
// (counted in stale_frames_rejected(), never parked where a same-tag
// recv could mis-deliver it). After a PeerFailure, rebuild() tears the
// old mesh down — which wakes every survivor blocked anywhere in the old
// world, cascading the abort — re-runs the rendezvous as a new epoch
// with a shrunken membership (dense re-ranking, original rank 0
// coordinating), and restarts the reactor. Recv/reassembly state of the
// old epoch is discarded; byte meters are cumulative across epochs.
//
// Determinism: the collectives fix the reduction order, the per-peer
// streams are FIFO (TCP/UDS ordering), and reassembly only reorders
// across tags, never within one — so a SocketFabric run is byte-identical
// to the same collective over the in-process Fabric, payloads and meters
// alike (asserted by tests/test_spmd_rank_local.cpp).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/transport.h"
#include "health/heartbeat.h"
#include "net/framing.h"
#include "net/reactor.h"
#include "net/socket.h"
#include "telemetry/metrics.h"

namespace gcs::net {

struct SocketFabricConfig {
  /// Rank 0's rendezvous address: "unix:<path>" or "tcp:<host>:<port>".
  std::string rendezvous;
  int world_size = 0;
  int rank = -1;  ///< this process's original (epoch-0) rank
  /// Deadline for the rendezvous handshake steps.
  int connect_timeout_ms = 20000;
  /// Deadline for a recv with no matching frame; guards against protocol
  /// bugs hanging a worker forever — and bounds how long a silent (not
  /// cleanly exited) peer can stall a round. gcs_worker's
  /// `--peer-timeout-ms` flag lands here.
  int recv_timeout_ms = 60000;
  /// Elastic membership: survive peer failure via epoch rebuilds. Off by
  /// default — a peer exit then fails the round loudly (the experiment
  /// contract) instead of shrinking the world.
  bool elastic = false;
  /// Elastic: rendezvous keeps its doors open this long for further
  /// members before closing an epoch's membership.
  int rejoin_window_ms = 2000;
};

class SocketFabric final : public comm::Transport {
 public:
  /// Connects the full mesh (blocks until all peers arrive — or, with
  /// config.elastic, until the rejoin window closes on whoever came).
  explicit SocketFabric(const SocketFabricConfig& config);
  ~SocketFabric() override;

  SocketFabric(const SocketFabric&) = delete;
  SocketFabric& operator=(const SocketFabric&) = delete;

  /// Current (this-epoch) rank; equals the configured original rank until
  /// a rebuild re-ranks the survivors densely.
  int rank() const noexcept { return membership_.self; }
  int original_rank() const noexcept { return config_.rank; }
  int world_size() const override { return membership_.world_size(); }

  void send(int src, int dst, std::uint64_t tag, ByteBuffer payload) override;
  comm::Message recv(int dst, int src, std::uint64_t expected_tag) override;

  std::uint64_t bytes_sent(int rank) const override;
  std::uint64_t bytes_received(int rank) const override;
  void reset_counters() override;

  /// Installs a wire tap (see comm::Transport): send/recv on the owned
  /// rank are timed and reported. Install while no collective is in
  /// flight; the reactor thread never touches the tap.
  void set_wire_tap(comm::WireTap* tap) override { tap_ = tap; }

  comm::Membership membership() const override { return membership_; }

  /// Uniform counter snapshot (see comm::TransportStats): totals plus
  /// per-peer traffic keyed by original rank, stale-frame/failure/rebuild
  /// event counts and the current epoch. `rank` must be the owned rank.
  comm::TransportStats stats(int rank) const override;

  /// Elastic recovery (requires config.elastic): tears down the current
  /// mesh, re-rendezvouses the survivors as epoch + 1 and resumes with a
  /// dense re-ranking. See the file comment. Must be called from the
  /// rank's (single) collective thread with no collective in flight
  /// elsewhere — i.e. right after catching the PeerFailure that aborted
  /// the round. Throws if the local process is evicted (it missed the
  /// window) or survivors' resume rounds diverge.
  comm::Membership rebuild(std::uint64_t resume_round) override;

  /// Old-epoch frames dropped by the reactor plus reassembly buckets
  /// discarded at rebuilds — the "rejected, not mis-delivered" meter.
  std::uint64_t stale_frames_rejected() const;

  /// Administrative channel failure: shuts down the connection to the
  /// peer holding `original_rank`, so the blocked recv on that channel
  /// wakes with a PeerFailure naming it. This is the watchdog's opt-in
  /// round abort (--watchdog-abort): a peer that went *silent* — frozen
  /// mid-send, connection formally open — never produces the EOF elastic
  /// recovery keys on, so the watchdog manufactures it. Thread-safe
  /// against concurrent rebuild/teardown (callable from the watchdog
  /// thread); returns false when that peer is not in the current mesh.
  bool fail_peer(int original_rank);

  /// Reactor loop counters of the current mesh (zeroed between a
  /// teardown and the next epoch).
  Reactor::Stats reactor_stats() const;

 private:
  struct Peer;

  /// Frame consumer for one peer: rejects stale-epoch frames, fails the
  /// channel on future-epoch or wrong-source frames, then parks the
  /// payload in the peer's tag bucket. Reactor-thread callbacks.
  struct PeerSink final : Reactor::Sink {
    SocketFabric* fabric = nullptr;
    Peer* peer = nullptr;
    int rank = -1;  ///< current-epoch rank this channel belongs to
    std::uint64_t epoch = 0;
    void on_frame(const FrameHeader& header, ByteBuffer payload) override;
    void on_close(const std::string& reason) override;
  };

  struct Peer {
    int channel = -1;  ///< reactor channel id
    PeerSink sink;
    // Reassembly state, guarded by mu.
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::uint64_t, std::deque<ByteBuffer>> by_tag;
    std::size_t buffered = 0;  ///< messages currently parked in by_tag
    bool closed = false;
    std::string close_reason;
    /// Watchdog heartbeat, keyed by the peer's original rank: the sink
    /// beats per frame parked, recv arms it while blocked — so
    /// "armed and silent" means exactly "waiting on this peer and
    /// nothing is arriving".
    health::LaneHandle lane;
  };

  void adopt_epoch(std::vector<Socket> sockets,
                   std::vector<int> original_ranks, int self,
                   std::uint64_t epoch);
  void teardown_mesh();
  void count_stale_frame();
  Peer& peer(int rank) const;
  /// Counts a typed PeerFailure about to be thrown (meter + telemetry)
  /// and triggers the flight recorder's post-mortem dump when one is
  /// armed. `peer` is the current-epoch rank whose channel failed.
  void note_peer_failure(int peer) noexcept;

  SocketFabricConfig config_;
  comm::Membership membership_;
  std::vector<std::unique_ptr<Peer>> peers_;  // self slot stays null
  /// The epoch's event loop; rebuilt with the mesh. Must be destroyed
  /// before peers_ is cleared (sinks point into peers_).
  std::unique_ptr<Reactor> reactor_;
  /// Serializes mesh mutation (adopt_epoch/teardown_mesh, both on the
  /// collective thread) against fail_peer (watchdog thread) and
  /// reactor_stats(). The reactor thread never takes it, so teardown can
  /// join the loop while holding it.
  mutable std::mutex mesh_mu_;

  // Loopback (self-send) queue, same reassembly semantics.
  mutable std::mutex self_mu_;
  std::condition_variable self_cv_;
  std::map<std::uint64_t, std::deque<ByteBuffer>> self_by_tag_;
  std::size_t self_buffered_ = 0;

  mutable std::mutex counter_mu_;
  std::uint64_t sent_bytes_ = 0;
  std::uint64_t received_bytes_ = 0;
  std::uint64_t stale_rejected_ = 0;
  std::uint64_t peer_failures_ = 0;
  std::uint64_t rebuilds_ = 0;
  /// Per-peer traffic keyed by the peer's original (epoch-0) rank, so a
  /// peer's row is stable across rebuild re-rankings. Guarded by
  /// counter_mu_ (the hot path already takes it for the totals).
  std::map<int, std::uint64_t> peer_sent_bytes_;
  std::map<int, std::uint64_t> peer_recv_bytes_;
  comm::WireTap* tap_ = nullptr;  ///< non-owning; set while quiescent

  /// Telemetry handles, acquired at construction (dead when telemetry is
  /// off — see src/telemetry/metrics.h). Per-peer registry counters are
  /// materialized lazily under counter_mu_ as peers first exchange bytes.
  struct Telemetry {
    telemetry::CounterHandle sent_bytes, recv_bytes;
    telemetry::CounterHandle stale_frames, peer_failures, rebuilds;
    telemetry::GaugeHandle epoch, world;
  };
  Telemetry tel_;
  struct PeerTel {
    telemetry::CounterHandle sent, recv;
  };
  std::map<int, PeerTel> peer_tel_;  // keyed by original rank; counter_mu_
};

}  // namespace gcs::net
