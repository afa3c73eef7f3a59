// Chunked, stream-oriented collectives — the only reduction collectives
// on a transport.
//
// A chunked collective carries ONE logical payload as a sequence of
// contiguous chunks and interleaves the per-chunk hops, which is the wire
// schedule a pipelined aggregation stack needs: while chunk k's hop is in
// flight, the producer may already be encoding chunk k+1 (the overlap the
// cost model charges — see sim/cost_model.h). A one-chunk plan
// (chunk_payload(size, 0, granularity)) is the plain monolithic
// collective.
//
// Algorithm families, mirroring NCCL's:
//   * ring all-reduce  — reduce-scatter + all-gather, 2(n-1)/n x payload on
//     the wire per worker; bandwidth-optimal (Baidu ring).
//   * tree all-reduce  — binomial reduce to rank 0 + binomial broadcast;
//     latency-optimal for small payloads (Sanders et al. two-tree family).
//   * all-gather       — ring; every worker ends with every worker's
//     payload (the only collective plain TopK can use).
//   * parameter server — many-to-one gather + reduce at one rank, then
//     one-to-many broadcast (the incast-prone pattern the paper critiques).
//
// Reduction order is fixed per collective so that non-associative ops
// (FP16 sum, saturating add) reproduce bit-for-bit:
//   ring:  block j is folded in worker order j, j+1, ..., j+n-1 (mod n),
//          each hop computing combine(local, partial).
//   tree:  rank r accumulates children r+1, r+2, r+4, ... in that order.
//   PS:    the server folds clients in rank order 0, 1, ..., n-1.
//
// Bit-identity contract (verified by tests/test_chunked_collectives.cpp):
// for every chunk plan — one chunk included — and every ReduceOp, each
// reduction collective produces byte-for-byte the value of its local_*
// reference fold in comm/group.h. The trick for the ring is that the
// reduce-scatter block partition is computed on the TOTAL payload size
// (ring_block_offsets), and each (step, chunk) hop carries the
// intersection of the step's block with the chunk. A coordinate's fold
// order therefore depends only on its global block index, never on the
// chunking — chunking is value-transparent. Tree, PS and all-gather fold
// per coordinate in rank order regardless of position, so their chunked
// forms are trivially chunking-invariant.
//
// All ranks must pass identical chunk plans (the plan is a pure function
// of the payload size, which is symmetric for every scheme here); empty
// (step, chunk) intersections are skipped symmetrically on both ends.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "comm/collectives.h"

namespace gcs::comm {

/// One contiguous chunk of a logical payload.
struct ChunkRange {
  std::size_t offset = 0;
  std::size_t size = 0;

  std::size_t end() const noexcept { return offset + size; }
  friend bool operator==(const ChunkRange&, const ChunkRange&) = default;
};

/// Splits `total` bytes into chunks of at most `chunk_bytes` each, every
/// boundary aligned to `granularity` (an op's lane alignment).
/// chunk_bytes == 0 means "do not chunk": one chunk spanning everything.
/// `total` must be a multiple of `granularity`.
std::vector<ChunkRange> chunk_payload(std::size_t total,
                                      std::size_t chunk_bytes,
                                      std::size_t granularity);

/// Chunked ring all-reduce, in place. Bit-identical to
/// local_ring_all_reduce (see file comment). `chunks` must tile `data`,
/// whose size must be identical on all ranks and a multiple of
/// op.granularity().
void chunked_ring_all_reduce(Communicator& comm, ByteBuffer& data,
                             std::span<const ChunkRange> chunks,
                             const ReduceOp& op);

/// Chunked binomial-tree all-reduce (reduce to rank 0, broadcast), in
/// place. Bit-identical to local_tree_all_reduce.
void chunked_tree_all_reduce(Communicator& comm, ByteBuffer& data,
                             std::span<const ChunkRange> chunks,
                             const ReduceOp& op);

/// Chunked ring all-gather: every rank ends with every rank's payload.
/// Requires equal payload sizes across ranks (all schemes here are
/// SPMD-symmetric); `chunks` must tile `mine`.
std::vector<ByteBuffer> chunked_all_gather(Communicator& comm,
                                           const ByteBuffer& mine,
                                           std::span<const ChunkRange> chunks);

/// Chunked parameter-server aggregation: every rank sends to `server`,
/// which folds clients in rank order per chunk and sends the result back.
/// In place. Bit-identical to local_ps_aggregate.
void chunked_ps_aggregate(Communicator& comm, ByteBuffer& data,
                          std::span<const ChunkRange> chunks,
                          const ReduceOp& op, int server);

/// Validates that `chunks` is a gapless, in-order tiling of `total` bytes.
/// Throws gcs::Error otherwise. Exposed for the pipeline and tests.
void check_chunk_plan(std::span<const ChunkRange> chunks, std::size_t total);

}  // namespace gcs::comm
