// Epoll reactor — the event-driven I/O engine under SocketFabric.
//
// One Reactor is one epoll loop on one thread, serving every peer
// connection of an endpoint: O(1) I/O threads per process regardless of
// world size, where a thread-per-peer reader model would spend O(N) per
// process and O(N²) cluster-wide — the gate to hundred-rank worlds.
//
// Receive path (reactor thread only): every channel runs a two-state
// reassembly machine. The 32-byte GCSF header is accumulated first
// ("header peek"); once decoded, the payload buffer is allocated at its
// final size and readv() lands wire bytes *directly* in it — no
// intermediate copy — while a second iovec captures whatever the kernel
// has of the next frame's header in the same syscall. Completed frames
// are handed to the channel's Sink in arrival order; a Sink that throws
// (protocol violation: future epoch, wrong source rank) closes the
// channel loudly, exactly like a torn frame or bad magic.
//
// Send path (any thread): send() appends one encoded frame to the
// channel's FIFO queue, then opportunistically flushes the whole queue
// with nonblocking writev — many queued frames coalesce into one
// scatter-gather syscall. On EAGAIN the residue stays queued, EPOLLOUT
// is armed, and the reactor thread finishes the flush when the socket
// drains. A bounded queue (kMaxQueuedBytes) preserves the blocking
// fabric's backpressure: senders wait on a cv, woken by the flusher or
// by channel failure.
//
// Liveness: the loop beats one informational heartbeat lane
// ("net.reactor") per wakeup — per *loop*, not per peer; per-peer
// progress lanes stay with the fabric's Sink, which beats "net.reader"
// per delivered frame so the watchdog's stall attribution is unchanged.
//
// Telemetry (handles dead when telemetry is off): wakeups, readv
// calls/bytes (bytes-per-call is the zero-copy batching figure), writev
// flushes and frames-per-flush (the coalescing figure).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "health/heartbeat.h"
#include "net/framing.h"
#include "net/socket.h"
#include "telemetry/metrics.h"

namespace gcs::net {

class Reactor {
 public:
  /// Per-channel frame consumer. Both methods run on the reactor thread.
  class Sink {
   public:
    virtual ~Sink() = default;
    /// One complete, well-formed frame in arrival order. Throwing rejects
    /// the stream: the channel closes with the exception text as reason.
    virtual void on_frame(const FrameHeader& header, ByteBuffer payload) = 0;
    /// The channel stopped: "peer exited" on a clean EOF at a frame
    /// boundary, otherwise the error text. Called at most once.
    virtual void on_close(const std::string& reason) = 0;
  };

  /// Soft cap on bytes queued per channel before send() blocks — the
  /// event-driven stand-in for a blocking write's kernel backpressure.
  static constexpr std::size_t kMaxQueuedBytes = std::size_t{64} << 20;

  Reactor();
  /// Stops and joins the loop. Channels' sockets close with it; sinks do
  /// NOT get on_close for an orderly shutdown (the owner is tearing the
  /// mesh down and already knows).
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Adopts `sock` (switched to nonblocking) as a new channel delivering
  /// to `sink`; returns the channel id. `sink` must outlive the Reactor.
  int add_channel(Socket sock, Sink* sink);

  /// Queues one frame and flushes opportunistically (see file comment).
  /// Blocks briefly under backpressure. Throws gcs::Error when the
  /// channel is broken (peer dead, protocol error, shut down).
  void send(int channel, std::uint32_t src_rank, std::uint64_t epoch,
            std::uint64_t tag, ByteBuffer payload);

  /// Manufactures an EOF on the channel (thread-safe): the reactor wakes,
  /// closes it and fires on_close — the watchdog's round-abort hook.
  void shutdown_channel(int channel) noexcept;

  /// Loop/syscall counters (process-local mirror of the telemetry
  /// counters, so benches and tests can assert without telemetry on).
  struct Stats {
    std::uint64_t wakeups = 0;
    std::uint64_t readv_calls = 0;
    std::uint64_t readv_bytes = 0;
    std::uint64_t flush_calls = 0;
    std::uint64_t frames_flushed = 0;
  };
  Stats stats() const noexcept;

 private:
  struct PendingFrame {
    std::byte header[kFrameHeaderBytes];
    ByteBuffer payload;
  };

  struct Channel {
    Socket sock;
    Sink* sink = nullptr;

    // --- receive state machine: reactor thread only ---
    std::byte head[kFrameHeaderBytes];
    std::size_t head_have = 0;
    bool in_payload = false;
    FrameHeader header;
    ByteBuffer payload;
    std::size_t payload_have = 0;
    bool closed = false;  ///< on_close fired; fd deregistered

    // --- send queue: guarded by send_mu ---
    std::mutex send_mu;
    std::condition_variable send_cv;
    std::deque<PendingFrame> queue;
    std::size_t queue_bytes = 0;
    std::size_t front_offset = 0;  ///< bytes of queue.front() on the wire
    bool epollout = false;         ///< EPOLLOUT currently armed
    bool broken = false;           ///< send side dead
    std::string broken_reason;
  };

  void loop();
  void handle_readable(Channel& ch);
  void handle_writable(Channel& ch);
  /// Flushes the queue with coalescing writev until empty or EAGAIN.
  /// Caller holds ch.send_mu. Returns false on EAGAIN (residue remains);
  /// throws gcs::Error on a broken send (marking the channel broken).
  bool flush_locked(Channel& ch);
  /// Reactor thread only: marks broken, deregisters, fires on_close.
  void close_channel(Channel& ch, const std::string& reason);
  void update_epoll(Channel& ch, bool want_out);

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: destructor stop signal
  std::atomic<bool> stop_{false};
  std::thread thread_;

  mutable std::mutex channels_mu_;  ///< guards the vector, not the entries
  std::vector<std::unique_ptr<Channel>> channels_;

  health::LaneHandle loop_lane_;

  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> readv_calls_{0};
  std::atomic<std::uint64_t> readv_bytes_{0};
  std::atomic<std::uint64_t> flush_calls_{0};
  std::atomic<std::uint64_t> frames_flushed_{0};

  struct Telemetry {
    telemetry::CounterHandle wakeups, readv_calls, readv_bytes;
    telemetry::CounterHandle flush_calls, frames_flushed;
  };
  Telemetry tel_;
};

}  // namespace gcs::net
