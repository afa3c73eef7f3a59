// Fork-based multi-process launcher for socket-transport runs.
//
// ForkedWorkers turns the current process into a miniature job scheduler:
// it forks one child per rank in [first_rank, world_size), runs the given
// body there, ships the ByteBuffer the body returns back to the parent
// over a pipe, and _exit()s the child (bypassing the parent's atexit
// machinery — the child must never fall back into the caller's stack).
// The parent may participate as one of the ranks itself by starting the
// range at 1 and running rank 0 inline.
//
// run_socket_ranks is the in-process stand-in for one process per rank:
// one thread per rank, each on its own SocketFabric endpoint.
//
// fork() inherits the parent's full address space copy-on-write, so the
// body can freely read any data structure the parent prepared (gradient
// buffers, codecs, reduce ops) with no serialization; only the report
// travels back.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "net/socket_fabric.h"

namespace gcs::net {

class ForkedWorkers {
 public:
  /// One child's outcome, as observed by the parent.
  struct Outcome {
    int rank = -1;
    /// The body returned and the child exited 0.
    bool ok = false;
    /// The child wrote a framed report before exiting (ok implies this;
    /// a body that threw reports too — `error` carries its message).
    bool reported = false;
    ByteBuffer report;       ///< valid when ok
    std::string error;       ///< body exception message, if any
    std::string wait_status; ///< "exit code N" / "signal N" description
    int exit_signal = -1;    ///< terminating signal, -1 if exited
    int exit_code = -1;      ///< exit code, -1 if signaled
  };

  /// Forks `body(rank)` for every rank in [first_rank, world_size).
  /// Throws gcs::Error if a fork fails (already-spawned children are
  /// reaped).
  ForkedWorkers(int first_rank, int world_size,
                const std::function<ByteBuffer(int rank)>& body);

  /// Best-effort reap if join() was never reached (exception unwind).
  ~ForkedWorkers();

  /// Collects every child's report, indexed by rank - first_rank. A child
  /// whose body threw, or that died without reporting, turns into a
  /// gcs::Error naming the rank and the cause.
  std::vector<ByteBuffer> join();

  /// Fault-tolerant collect: every child's outcome, indexed by
  /// rank - first_rank, with nothing promoted to an exception — the
  /// fault-injection harness kills ranks on purpose and must tell an
  /// expected death from a survivor's report itself.
  std::vector<Outcome> join_outcomes();

 private:
  struct Child {
    int rank = -1;
    int pid = -1;
    int pipe_read = -1;
  };

  void kill_and_reap() noexcept;

  std::vector<Child> children_;
  bool joined_ = false;
};

/// A fresh unix-domain rendezvous address ("unix:/tmp/gcs-<pid>-<seq>"),
/// unique within this process and unlikely to collide across processes.
std::string unique_unix_rendezvous();

/// Runs `body(fabric, rank)` on `world_size` threads, each rank on its own
/// SocketFabric endpoint meshed over a fresh unix-domain rendezvous with
/// the given recv deadline (20 s by default: every peer is a thread of
/// this process, so a longer silence is a hang). Joins every thread, then
/// rethrows the first rank's error; a rank that throws closes its
/// endpoint, so its peers fail with PeerFailure instead of waiting out
/// the deadline.
void run_socket_ranks(
    int world_size, const std::function<void(SocketFabric&, int rank)>& body,
    int recv_timeout_ms = 20000);

}  // namespace gcs::net
