// Communicator handle and the monolithic collectives that remain besides
// the chunked family (comm/chunked_collectives.h, which carries every
// reduction):
//   * all-gather — ring; every worker ends with every worker's payload.
//     Payload sizes may differ across ranks, which makes it the fallback
//     for schemes that pad per worker (TopK's delta format).
//   * broadcast  — binomial, from any root (the link prober's probe
//     fan-out).
//
// Every function is SPMD: all ranks call it on their own thread with their
// own Communicator, like an MPI/NCCL program.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/transport.h"
#include "comm/reduce_op.h"

namespace gcs::comm {

/// Per-rank handle onto a transport (in-process fabric or socket
/// endpoint — the collectives are agnostic). Cheap to copy.
class Communicator {
 public:
  Communicator(Transport& transport, int rank) noexcept
      : transport_(&transport), rank_(rank) {}

  int rank() const noexcept { return rank_; }
  int world_size() const noexcept { return transport_->world_size(); }

  void send(int dst, std::uint64_t tag, ByteBuffer payload) {
    transport_->send(rank_, dst, tag, std::move(payload));
  }
  Message recv(int src, std::uint64_t tag) {
    return transport_->recv(rank_, src, tag);
  }

  Transport& transport() noexcept { return *transport_; }

 private:
  Transport* transport_;
  int rank_;
};

/// Ring all-gather: returns all ranks' payloads, indexed by rank.
/// Payload sizes may differ across ranks.
std::vector<ByteBuffer> all_gather(Communicator& comm, ByteBuffer mine);

/// Binomial broadcast from `root`, in place (non-roots receive into data).
void broadcast(Communicator& comm, ByteBuffer& data, int root);

/// Block offsets used by the ring all-reduce to split `size` bytes into
/// world_size contiguous blocks aligned to `granularity`. Shared by the
/// chunked ring and the local reference fold; exposed for tests.
std::vector<std::size_t> ring_block_offsets(std::size_t size, int world_size,
                                            std::size_t granularity);

}  // namespace gcs::comm
