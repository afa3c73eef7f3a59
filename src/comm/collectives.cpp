#include "comm/collectives.h"

#include <bit>

#include "common/check.h"

namespace gcs::comm {
namespace {

// Tag layout: [collective id : 8][phase : 8][step : 16] — strict tagging
// catches protocol mistakes as loud failures rather than silent data mixup.
constexpr std::uint64_t tag_of(unsigned collective, unsigned phase,
                               unsigned step) noexcept {
  return (static_cast<std::uint64_t>(collective) << 24) |
         (static_cast<std::uint64_t>(phase) << 16) | step;
}

constexpr unsigned kGather = 3;
constexpr unsigned kBcast = 4;

}  // namespace

std::vector<std::size_t> ring_block_offsets(std::size_t size, int world_size,
                                            std::size_t granularity) {
  GCS_CHECK(granularity > 0);
  GCS_CHECK_MSG(size % granularity == 0,
                "payload size " << size << " not a multiple of granularity "
                                << granularity);
  const std::size_t elems = size / granularity;
  const auto n = static_cast<std::size_t>(world_size);
  const std::size_t base = elems / n;
  const std::size_t rem = elems % n;
  std::vector<std::size_t> off(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    off[i + 1] = off[i] + (base + (i < rem ? 1 : 0)) * granularity;
  }
  return off;
}

std::vector<ByteBuffer> all_gather(Communicator& comm, ByteBuffer mine) {
  const int n = comm.world_size();
  const int rank = comm.rank();
  std::vector<ByteBuffer> blocks(static_cast<std::size_t>(n));
  blocks[static_cast<std::size_t>(rank)] = std::move(mine);
  if (n == 1) return blocks;
  const int next = (rank + 1) % n;
  const int prev = (rank + n - 1) % n;
  for (int s = 0; s < n - 1; ++s) {
    const int send_block = (rank - s + n) % n;
    const int recv_block = (rank - s - 1 + n) % n;
    comm.send(next, tag_of(kGather, 1, static_cast<unsigned>(s)),
              blocks[static_cast<std::size_t>(send_block)]);
    Message msg =
        comm.recv(prev, tag_of(kGather, 1, static_cast<unsigned>(s)));
    blocks[static_cast<std::size_t>(recv_block)] = std::move(msg.payload);
  }
  return blocks;
}

void broadcast(Communicator& comm, ByteBuffer& data, int root) {
  const int n = comm.world_size();
  if (n == 1) return;
  // Rotate ranks so the root is virtual rank 0.
  const int vrank = (comm.rank() - root + n) % n;
  const auto top = static_cast<int>(std::bit_ceil(static_cast<unsigned>(n)));
  for (int step = top / 2; step >= 1; step >>= 1) {
    const int mask = 2 * step - 1;
    if ((vrank & mask) == 0 && vrank + step < n) {
      const int dst = (vrank + step + root) % n;
      comm.send(dst, tag_of(kBcast, 1, static_cast<unsigned>(step)), data);
    } else if ((vrank & mask) == step) {
      const int src = (vrank - step + root) % n;
      Message msg =
          comm.recv(src, tag_of(kBcast, 1, static_cast<unsigned>(step)));
      data = std::move(msg.payload);
    }
  }
}

}  // namespace gcs::comm
