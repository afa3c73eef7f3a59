// Determinism tests for the chunked transport layer: ring / tree / PS
// all-reduce produce, on every rank of the threaded fabric, byte-for-byte
// the value of their local_* reference fold (comm/group.h) for every
// ReduceOp — including the non-associative ones (FP16 sum, saturating
// add) — across world sizes 2-8 and every chunk plan, the one-chunk
// (monolithic) plan included. That is the transport layer's bit-identity
// contract, which is what lets the AggregationPipeline chunk payloads
// freely.
#include "comm/chunked_collectives.h"

#include <gtest/gtest.h>

#include <cstring>

#include "comm/fabric.h"
#include "comm/group.h"
#include "common/rng.h"
#include "numeric/half.h"
#include "quant/satint.h"
#include "oracles.h"

namespace gcs::comm {
namespace {

std::vector<ByteBuffer> fp32_inputs(int n, std::size_t count,
                                    std::uint64_t seed) {
  std::vector<ByteBuffer> inputs;
  for (int w = 0; w < n; ++w) {
    Rng rng(derive_seed(seed, w));
    ByteBuffer buf;
    ByteWriter writer(buf);
    for (std::size_t i = 0; i < count; ++i) {
      writer.put<float>(static_cast<float>(rng.next_gaussian()) * 64.0f);
    }
    inputs.push_back(std::move(buf));
  }
  return inputs;
}

std::vector<ByteBuffer> fp16_inputs(int n, std::size_t count,
                                    std::uint64_t seed) {
  std::vector<ByteBuffer> inputs;
  for (int w = 0; w < n; ++w) {
    Rng rng(derive_seed(seed, w));
    ByteBuffer buf;
    ByteWriter writer(buf);
    for (std::size_t i = 0; i < count; ++i) {
      writer.put<std::uint16_t>(float_to_half_bits(
          static_cast<float>(rng.next_gaussian()) * 64.0f));
    }
    inputs.push_back(std::move(buf));
  }
  return inputs;
}

/// Packed signed `bits`-bit lanes in [-max, max]; the lane count is
/// rounded up to whole bytes so no padding lane leaves the domain.
template <unsigned bits>
std::vector<ByteBuffer> sat_inputs(int n, std::size_t count,
                                   std::uint64_t seed) {
  constexpr std::int32_t max = (1 << (bits - 1)) - 1;
  constexpr std::size_t per_byte = 8 / bits;
  const std::size_t lanes = (count + per_byte - 1) / per_byte * per_byte;
  std::vector<ByteBuffer> inputs;
  for (int w = 0; w < n; ++w) {
    Rng rng(derive_seed(seed, w));
    std::vector<std::int32_t> ls(lanes);
    for (auto& l : ls) {
      l = static_cast<std::int32_t>(rng.next_below(2 * max + 1)) - max;
    }
    inputs.push_back(pack_signed_lanes(ls, bits));
  }
  return inputs;
}

template <typename Body>
std::vector<ByteBuffer> run_threaded(const std::vector<ByteBuffer>& inputs,
                                     Body body) {
  const auto n = static_cast<int>(inputs.size());
  Fabric fabric(n);
  std::vector<ByteBuffer> results(inputs.begin(), inputs.end());
  run_workers(fabric, [&](Communicator& comm) {
    body(comm, results[static_cast<std::size_t>(comm.rank())]);
  });
  return results;
}

struct OpCase {
  const char* label;
  std::unique_ptr<ReduceOp> (*make)();
  std::vector<ByteBuffer> (*inputs)(int, std::size_t, std::uint64_t);
};

template <unsigned bits>
std::unique_ptr<ReduceOp> make_sat() {
  return make_sat_int(bits, nullptr);
}

const OpCase kOpCases[] = {
    {"fp32-sum", &make_fp32_sum, &fp32_inputs},
    {"fp16-sum", &make_fp16_sum, &fp16_inputs},
    {"fp32-min", &make_fp32_min, &fp32_inputs},
    {"fp32-max", &make_fp32_max, &fp32_inputs},
    {"sat2-add", &make_sat<2>, &sat_inputs<2>},
    {"sat4-add", &make_sat<4>, &sat_inputs<4>},
    {"sat8-add", &make_sat<8>, &sat_inputs<8>},
};

class ChunkedDeterminismTest : public ::testing::TestWithParam<int> {};

// The determinism matrix: for world sizes 2-8 and every ReduceOp, ring /
// tree / PS leave every rank with exactly the local_* reference fold, at
// every chunk plan — one chunk (chunk_bytes 0, the monolithic schedule),
// one lane per chunk, misaligned requests, and an oversized request.
TEST_P(ChunkedDeterminismTest, RingTreePsMatchLocalFoldsForEveryChunkPlan) {
  const int n = GetParam();
  const std::size_t count = 90;  // elements; intentionally not 2^k
  for (const auto& op_case : kOpCases) {
    const auto op = op_case.make();
    const auto inputs = op_case.inputs(n, count, 1000 + n);
    const std::size_t total = inputs[0].size();
    const auto local_ring = local_ring_all_reduce(inputs, *op);
    const auto local_tree = local_tree_all_reduce(inputs, *op);
    const auto local_ps = local_ps_aggregate(inputs, *op, 0);
    for (std::size_t chunk_bytes :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{16},
          std::size_t{64}, total + 100}) {
      const auto chunks =
          chunk_payload(total, chunk_bytes, op->granularity());
      const auto ring = run_threaded(
          inputs, [&](Communicator& comm, ByteBuffer& data) {
            chunked_ring_all_reduce(comm, data, chunks, *op);
          });
      const auto tree = run_threaded(
          inputs, [&](Communicator& comm, ByteBuffer& data) {
            chunked_tree_all_reduce(comm, data, chunks, *op);
          });
      const auto ps = run_threaded(
          inputs, [&](Communicator& comm, ByteBuffer& data) {
            chunked_ps_aggregate(comm, data, chunks, *op, 0);
          });
      for (int r = 0; r < n; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        EXPECT_EQ(ring[ri], local_ring)
            << op_case.label << " ring rank " << r << " chunk " << chunk_bytes;
        EXPECT_EQ(tree[ri], local_tree)
            << op_case.label << " tree rank " << r << " chunk " << chunk_bytes;
        EXPECT_EQ(ps[ri], local_ps)
            << op_case.label << " ps rank " << r << " chunk " << chunk_bytes;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, ChunkedDeterminismTest,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8));

TEST(ChunkedAllGather, MatchesMonolithicAllGather) {
  const int n = 5;
  const std::size_t bytes = 123;
  std::vector<ByteBuffer> inputs;
  for (int w = 0; w < n; ++w) {
    Rng rng(derive_seed(77, w));
    ByteBuffer buf(bytes);
    for (auto& b : buf) {
      b = static_cast<std::byte>(rng.next_below(256));
    }
    inputs.push_back(std::move(buf));
  }
  const auto chunks = chunk_payload(bytes, 32, 1);
  Fabric f1(n), f2(n);
  std::vector<std::vector<ByteBuffer>> mono(n), chunked(n);
  run_workers(f1, [&](Communicator& comm) {
    mono[static_cast<std::size_t>(comm.rank())] = all_gather(
        comm, inputs[static_cast<std::size_t>(comm.rank())]);
  });
  run_workers(f2, [&](Communicator& comm) {
    chunked[static_cast<std::size_t>(comm.rank())] = chunked_all_gather(
        comm, inputs[static_cast<std::size_t>(comm.rank())], chunks);
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(chunked[static_cast<std::size_t>(r)],
              mono[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

TEST(ChunkedRing, WireVolumeMatchesMonolithic) {
  // Chunking changes the message granularity, never the total volume.
  const int n = 4;
  const std::size_t payload = 400;
  const auto op = make_fp32_sum();
  const auto inputs = fp16_inputs(n, payload / 2, 5);
  const auto chunks = chunk_payload(payload, 96, op->granularity());
  Fabric fabric(n);
  std::vector<ByteBuffer> bufs(inputs.begin(), inputs.end());
  run_workers(fabric, [&](Communicator& comm) {
    chunked_ring_all_reduce(comm, bufs[static_cast<std::size_t>(comm.rank())],
                            chunks, *op);
  });
  const auto expected_per_worker =
      payload * 2 * (n - 1) / static_cast<std::size_t>(n);
  for (int w = 0; w < n; ++w) {
    EXPECT_EQ(fabric.bytes_sent(w), expected_per_worker);
  }
}

TEST(ChunkPayload, AlignmentAndTiling) {
  // Zero chunk size: one chunk spanning everything.
  auto one = chunk_payload(100, 0, 4);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (ChunkRange{0, 100}));

  // Requested size is rounded down to the granularity.
  auto aligned = chunk_payload(100, 10, 4);
  for (std::size_t i = 0; i + 1 < aligned.size(); ++i) {
    EXPECT_EQ(aligned[i].size % 4, 0u);
  }
  check_chunk_plan(aligned, 100);

  // A chunk request below one lane still makes whole-lane chunks.
  auto tiny = chunk_payload(16, 1, 4);
  for (const auto& c : tiny) EXPECT_EQ(c.size, 4u);
  check_chunk_plan(tiny, 16);

  // Oversized chunk request: single chunk.
  EXPECT_EQ(chunk_payload(64, 1024, 4).size(), 1u);

  // Empty payload: empty plan.
  EXPECT_TRUE(chunk_payload(0, 64, 4).empty());

  // Misaligned totals throw, like ring_block_offsets does.
  EXPECT_THROW(chunk_payload(10, 4, 4), std::logic_error);
}

TEST(ChunkPlan, Validation) {
  EXPECT_NO_THROW(check_chunk_plan(
      std::vector<ChunkRange>{{0, 4}, {4, 4}}, 8));
  EXPECT_THROW(check_chunk_plan(std::vector<ChunkRange>{{0, 4}}, 8),
               std::logic_error);
  EXPECT_THROW(check_chunk_plan(
                   std::vector<ChunkRange>{{0, 4}, {5, 3}}, 8),
               std::logic_error);
}

}  // namespace
}  // namespace gcs::comm
