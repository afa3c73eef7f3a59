// SPMD thread runner and local reference aggregators.
//
// run_workers executes one function per rank on its own thread against a
// shared transport (the in-process fabric owns every rank, so one object
// serves all threads) — the standard way to drive the collectives "for
// real" inside one process. Across processes, each rank constructs its
// own net::SocketFabric endpoint instead.
//
// The local_* reference folds compute, without any threads or message
// passing, exactly the value the corresponding chunked collective
// (comm/chunked_collectives.h) produces for every chunk plan — including
// the reduction order, so results are bit-identical even for
// non-associative ops (FP16 sum, saturating add). They are the single
// reference oracle: the pipeline's kLocalReference backend runs them, and
// tests and benches compare every transport run against them.
#pragma once

#include <functional>
#include <vector>

#include "comm/collectives.h"

namespace gcs::comm {

/// Runs `body(rank_communicator)` on one thread per rank and joins.
/// The first exception thrown by any worker is rethrown after join. On a
/// comm::Fabric that first exception also aborts the fabric, so peers
/// blocked in recv throw instead of hanging. `transport` must own every
/// rank (e.g. the in-process Fabric).
void run_workers(Transport& transport,
                 const std::function<void(Communicator&)>& body);

/// Reference result of chunked_ring_all_reduce over `inputs` (one buffer
/// per rank, equal sizes). Folds block j in worker order j, j+1, ...,
/// j+n-1 with the same operand orientation as the ring hops.
ByteBuffer local_ring_all_reduce(const std::vector<ByteBuffer>& inputs,
                                 const ReduceOp& op);

/// Reference result of chunked_tree_all_reduce (binomial fold toward
/// rank 0).
ByteBuffer local_tree_all_reduce(const std::vector<ByteBuffer>& inputs,
                                 const ReduceOp& op);

/// Reference result of chunked_ps_aggregate with the given server rank.
ByteBuffer local_ps_aggregate(const std::vector<ByteBuffer>& inputs,
                              const ReduceOp& op, int server = 0);

}  // namespace gcs::comm
