#include "comm/group.h"

#include <exception>
#include <mutex>
#include <thread>

#include "comm/fabric.h"
#include "common/check.h"

namespace gcs::comm {

void run_workers(Transport& transport,
                 const std::function<void(Communicator&)>& body) {
  const int n = transport.world_size();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto* fabric = dynamic_cast<Fabric*>(&transport);
  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        Communicator comm(transport, rank);
        body(comm);
      } catch (...) {
        {
          std::lock_guard lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
        // Peers may be blocked in recv on hops this rank will never send:
        // poison the fabric so they fail too instead of deadlocking.
        if (fabric != nullptr) fabric->abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

ByteBuffer local_ring_all_reduce(const std::vector<ByteBuffer>& inputs,
                                 const ReduceOp& op) {
  GCS_CHECK(!inputs.empty());
  const auto n = static_cast<int>(inputs.size());
  const std::size_t size = inputs[0].size();
  for (const auto& in : inputs) GCS_CHECK(in.size() == size);
  if (n == 1) return inputs[0];

  const auto off = ring_block_offsets(size, n, op.granularity());
  ByteBuffer result(size);
  for (int j = 0; j < n; ++j) {
    const std::size_t begin = off[static_cast<std::size_t>(j)];
    const std::size_t len = off[static_cast<std::size_t>(j) + 1] - begin;
    // partial starts as worker j's block, then folds j+1, j+2, ... with the
    // hop orientation combine(local, partial).
    ByteBuffer partial(inputs[static_cast<std::size_t>(j)].begin() +
                           static_cast<std::ptrdiff_t>(begin),
                       inputs[static_cast<std::size_t>(j)].begin() +
                           static_cast<std::ptrdiff_t>(begin + len));
    for (int t = 1; t < n; ++t) {
      const int w = (j + t) % n;
      ByteBuffer local(inputs[static_cast<std::size_t>(w)].begin() +
                           static_cast<std::ptrdiff_t>(begin),
                       inputs[static_cast<std::size_t>(w)].begin() +
                           static_cast<std::ptrdiff_t>(begin + len));
      op.accumulate(local, partial);
      partial = std::move(local);
    }
    std::copy(partial.begin(), partial.end(),
              result.begin() + static_cast<std::ptrdiff_t>(begin));
  }
  return result;
}

ByteBuffer local_tree_all_reduce(const std::vector<ByteBuffer>& inputs,
                                 const ReduceOp& op) {
  GCS_CHECK(!inputs.empty());
  const auto n = static_cast<int>(inputs.size());
  // Bottom-up binomial fold: rank r absorbs child r+step for step = 1, 2,
  // 4, ... while bit `step` of r is clear — exactly the receive order of
  // chunked_tree_all_reduce. Processing ranks from high to low guarantees
  // each child's accumulator is final before its parent consumes it.
  std::vector<ByteBuffer> acc(inputs.begin(), inputs.end());
  for (int r = n - 1; r >= 0; --r) {
    for (int step = 1; (r & step) == 0 && r + step < n; step <<= 1) {
      op.accumulate(acc[static_cast<std::size_t>(r)],
                    acc[static_cast<std::size_t>(r + step)]);
    }
  }
  return acc[0];
}

ByteBuffer local_ps_aggregate(const std::vector<ByteBuffer>& inputs,
                              const ReduceOp& op, int server) {
  GCS_CHECK(!inputs.empty());
  const auto n = static_cast<int>(inputs.size());
  GCS_CHECK(server >= 0 && server < n);
  ByteBuffer acc = inputs[static_cast<std::size_t>(server)];
  for (int src = 0; src < n; ++src) {
    if (src == server) continue;
    op.accumulate(acc, inputs[static_cast<std::size_t>(src)]);
  }
  return acc;
}

}  // namespace gcs::comm
