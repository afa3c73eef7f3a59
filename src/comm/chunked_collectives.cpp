#include "comm/chunked_collectives.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace gcs::comm {
namespace {

// Chunked collectives get their own tag namespace: 16 bits of chunk index
// on top of [collective : 8][phase : 8][step : 16] shifted up, so a
// chunked protocol can never collide with the monolithic all-gather or
// broadcast (comm/collectives.cpp).
constexpr std::uint64_t ctag(unsigned collective, unsigned phase,
                             unsigned step, std::size_t chunk) noexcept {
  return (std::uint64_t{1} << 63) |
         (static_cast<std::uint64_t>(collective) << 40) |
         (static_cast<std::uint64_t>(phase) << 32) |
         (static_cast<std::uint64_t>(step) << 16) |
         static_cast<std::uint64_t>(chunk & 0xFFFF);
}

constexpr unsigned kRing = 1;
constexpr unsigned kTree = 2;
constexpr unsigned kGather = 3;
constexpr unsigned kBcast = 4;
constexpr unsigned kPs = 5;

/// Intersection of [begin, end) with a chunk, as a byte range.
struct Segment {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const noexcept { return end - begin; }
};

Segment intersect(std::size_t begin, std::size_t end,
                  const ChunkRange& chunk) noexcept {
  const std::size_t lo = std::max(begin, chunk.offset);
  const std::size_t hi = std::min(end, chunk.end());
  return lo < hi ? Segment{lo, hi} : Segment{};
}

std::span<std::byte> segment_span(ByteBuffer& data, Segment seg) {
  return {data.data() + seg.begin, seg.size()};
}

ByteBuffer segment_copy(const ByteBuffer& data, Segment seg) {
  return ByteBuffer(data.begin() + static_cast<std::ptrdiff_t>(seg.begin),
                    data.begin() + static_cast<std::ptrdiff_t>(seg.end));
}

}  // namespace

void check_chunk_plan(std::span<const ChunkRange> chunks, std::size_t total) {
  // The chunk index must fit the 16 tag bits ctag() reserves for it, or
  // the strict-tagging protocol check degrades into silent FIFO matching.
  GCS_CHECK_MSG(chunks.size() <= 0x10000,
                "chunk plan has " << chunks.size()
                                  << " chunks; tags carry at most 65536");
  std::size_t pos = 0;
  for (const auto& chunk : chunks) {
    GCS_CHECK_MSG(chunk.offset == pos,
                  "chunk plan has a gap or overlap at byte " << pos);
    GCS_CHECK_MSG(chunk.size > 0 || total == 0,
                  "chunk plan contains an empty chunk");
    pos = chunk.end();
  }
  GCS_CHECK_MSG(pos == total, "chunk plan covers " << pos << " of " << total
                                                   << " payload bytes");
}

std::vector<ChunkRange> chunk_payload(std::size_t total,
                                      std::size_t chunk_bytes,
                                      std::size_t granularity) {
  GCS_CHECK(granularity > 0);
  GCS_CHECK_MSG(total % granularity == 0,
                "payload size " << total << " not a multiple of granularity "
                                << granularity);
  if (total == 0) return {};
  if (chunk_bytes == 0) return {ChunkRange{0, total}};
  // Round the requested chunk size down to the alignment (but at least one
  // whole lane per chunk).
  const std::size_t step = std::max(chunk_bytes / granularity, std::size_t{1}) *
                           granularity;
  std::vector<ChunkRange> chunks;
  for (std::size_t pos = 0; pos < total; pos += step) {
    chunks.push_back(ChunkRange{pos, std::min(step, total - pos)});
  }
  return chunks;
}

void chunked_ring_all_reduce(Communicator& comm, ByteBuffer& data,
                             std::span<const ChunkRange> chunks,
                             const ReduceOp& op) {
  check_chunk_plan(chunks, data.size());
  const int n = comm.world_size();
  if (n == 1 || data.empty()) return;
  const int rank = comm.rank();
  // The block partition of the whole payload — computed on the total
  // size, which is what makes chunking value-transparent.
  const auto off = ring_block_offsets(data.size(), n, op.granularity());
  const int next = (rank + 1) % n;
  const int prev = (rank + n - 1) % n;
  const auto block_range = [&](int block) {
    return std::pair<std::size_t, std::size_t>{
        off[static_cast<std::size_t>(block)],
        off[static_cast<std::size_t>(block) + 1]};
  };

  // Phase 1: reduce-scatter, hop-interleaved across chunks. Step s moves
  // (send_block ∩ chunk) for every chunk; both ends derive the segment
  // sizes from the same shared plan, so skipping empty segments is
  // symmetric.
  for (int s = 0; s < n - 1; ++s) {
    const int send_block = (rank - s + n) % n;
    const int recv_block = (rank - s - 1 + n) % n;
    const auto [sb, se] = block_range(send_block);
    const auto [rb, re] = block_range(recv_block);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const Segment out = intersect(sb, se, chunks[c]);
      if (out.size() > 0) {
        comm.send(next, ctag(kRing, 1, static_cast<unsigned>(s), c),
                  segment_copy(data, out));
      }
      const Segment acc = intersect(rb, re, chunks[c]);
      if (acc.size() > 0) {
        Message msg =
            comm.recv(prev, ctag(kRing, 1, static_cast<unsigned>(s), c));
        GCS_CHECK(msg.payload.size() == acc.size());
        op.accumulate(segment_span(data, acc), msg.payload);
      }
    }
  }

  // Phase 2: all-gather of the fully reduced blocks, same interleaving.
  for (int s = 0; s < n - 1; ++s) {
    const int send_block = (rank + 1 - s + n) % n;
    const int recv_block = (rank - s + n) % n;
    const auto [sb, se] = block_range(send_block);
    const auto [rb, re] = block_range(recv_block);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const Segment out = intersect(sb, se, chunks[c]);
      if (out.size() > 0) {
        comm.send(next, ctag(kRing, 2, static_cast<unsigned>(s), c),
                  segment_copy(data, out));
      }
      const Segment dst = intersect(rb, re, chunks[c]);
      if (dst.size() > 0) {
        Message msg =
            comm.recv(prev, ctag(kRing, 2, static_cast<unsigned>(s), c));
        GCS_CHECK(msg.payload.size() == dst.size());
        auto span = segment_span(data, dst);
        std::copy(msg.payload.begin(), msg.payload.end(), span.begin());
      }
    }
  }
}

void chunked_tree_all_reduce(Communicator& comm, ByteBuffer& data,
                             std::span<const ChunkRange> chunks,
                             const ReduceOp& op) {
  check_chunk_plan(chunks, data.size());
  const int n = comm.world_size();
  if (n == 1 || data.empty()) return;
  const int rank = comm.rank();

  // Binomial reduce to rank 0, one message per chunk per hop. The fold
  // order per coordinate is the rank order of the binomial tree — chunking
  // cannot change it.
  for (int step = 1; step < n; step <<= 1) {
    if ((rank & step) != 0) {
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        comm.send(rank - step,
                  ctag(kTree, 1, static_cast<unsigned>(step), c),
                  segment_copy(data, {chunks[c].offset, chunks[c].end()}));
      }
      break;
    }
    if (rank + step < n) {
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        Message msg = comm.recv(
            rank + step, ctag(kTree, 1, static_cast<unsigned>(step), c));
        GCS_CHECK(msg.payload.size() == chunks[c].size);
        op.accumulate(
            segment_span(data, {chunks[c].offset, chunks[c].end()}),
            msg.payload);
      }
    }
  }

  // Chunked binomial broadcast from rank 0.
  const int vrank = rank;
  const auto top = static_cast<int>(std::bit_ceil(static_cast<unsigned>(n)));
  for (int step = top / 2; step >= 1; step >>= 1) {
    const int mask = 2 * step - 1;
    if ((vrank & mask) == 0 && vrank + step < n) {
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        comm.send(vrank + step,
                  ctag(kBcast, 1, static_cast<unsigned>(step), c),
                  segment_copy(data, {chunks[c].offset, chunks[c].end()}));
      }
    } else if ((vrank & mask) == step) {
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        Message msg = comm.recv(
            vrank - step, ctag(kBcast, 1, static_cast<unsigned>(step), c));
        GCS_CHECK(msg.payload.size() == chunks[c].size);
        auto span = segment_span(data, {chunks[c].offset, chunks[c].end()});
        std::copy(msg.payload.begin(), msg.payload.end(), span.begin());
      }
    }
  }
}

void chunked_all_gather(Communicator& comm, std::vector<ByteBuffer>& blocks,
                        std::span<const ChunkRange> chunks) {
  const int n = comm.world_size();
  const int rank = comm.rank();
  GCS_CHECK(blocks.size() == static_cast<std::size_t>(n));
  const std::size_t size = blocks[static_cast<std::size_t>(rank)].size();
  check_chunk_plan(chunks, size);
  if (n == 1) return;
  // Equal payload sizes across ranks: every rank can size the blocks up
  // front and apply the shared chunk plan to every block it forwards.
  for (auto& b : blocks) b.resize(size);
  const int next = (rank + 1) % n;
  const int prev = (rank + n - 1) % n;
  for (int s = 0; s < n - 1; ++s) {
    const int send_block = (rank - s + n) % n;
    const int recv_block = (rank - s - 1 + n) % n;
    auto& outgoing = blocks[static_cast<std::size_t>(send_block)];
    auto& incoming = blocks[static_cast<std::size_t>(recv_block)];
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      comm.send(next, ctag(kGather, 1, static_cast<unsigned>(s), c),
                segment_copy(outgoing, {chunks[c].offset, chunks[c].end()}));
      Message msg =
          comm.recv(prev, ctag(kGather, 1, static_cast<unsigned>(s), c));
      GCS_CHECK(msg.payload.size() == chunks[c].size);
      std::copy(msg.payload.begin(), msg.payload.end(),
                incoming.begin() + static_cast<std::ptrdiff_t>(
                                       chunks[c].offset));
    }
  }
}

void chunked_ps_aggregate(Communicator& comm, ByteBuffer& data,
                          std::span<const ChunkRange> chunks,
                          const ReduceOp& op, int server) {
  check_chunk_plan(chunks, data.size());
  const int n = comm.world_size();
  if (n == 1 || data.empty()) return;
  const int rank = comm.rank();
  if (rank == server) {
    // Fold clients in rank order per chunk — the canonical PS order, which
    // per coordinate is independent of the chunking.
    for (int src = 0; src < n; ++src) {
      if (src == server) continue;
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        Message msg =
            comm.recv(src, ctag(kPs, 1, static_cast<unsigned>(src), c));
        GCS_CHECK(msg.payload.size() == chunks[c].size);
        op.accumulate(
            segment_span(data, {chunks[c].offset, chunks[c].end()}),
            msg.payload);
      }
    }
    for (int dst = 0; dst < n; ++dst) {
      if (dst == server) continue;
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        comm.send(dst, ctag(kPs, 2, static_cast<unsigned>(dst), c),
                  segment_copy(data, {chunks[c].offset, chunks[c].end()}));
      }
    }
  } else {
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      comm.send(server, ctag(kPs, 1, static_cast<unsigned>(rank), c),
                segment_copy(data, {chunks[c].offset, chunks[c].end()}));
    }
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      Message msg =
          comm.recv(server, ctag(kPs, 2, static_cast<unsigned>(rank), c));
      GCS_CHECK(msg.payload.size() == chunks[c].size);
      auto span = segment_span(data, {chunks[c].offset, chunks[c].end()});
      std::copy(msg.payload.begin(), msg.payload.end(), span.begin());
    }
  }
}

}  // namespace gcs::comm
