// Tests for the collectives on the real threaded fabric: correctness of
// every collective, measured wire volumes, and bit-identity with the
// local reference aggregators (including non-associative ops). The
// reductions run as chunked collectives over one-chunk plans — the
// monolithic schedule.
#include "comm/collectives.h"

#include <gtest/gtest.h>

#include <cstring>

#include "comm/chunked_collectives.h"
#include "comm/fabric.h"
#include "comm/group.h"
#include "common/rng.h"
#include "numeric/half.h"
#include "oracles.h"

namespace gcs::comm {
namespace {

ByteBuffer float_payload(const std::vector<float>& xs) {
  ByteBuffer buf(xs.size() * sizeof(float));
  std::memcpy(buf.data(), xs.data(), buf.size());
  return buf;
}

std::vector<float> floats_of(const ByteBuffer& buf) {
  std::vector<float> out(buf.size() / sizeof(float));
  std::memcpy(out.data(), buf.data(), buf.size());
  return out;
}

std::vector<ByteBuffer> random_float_inputs(int n, std::size_t count,
                                            std::uint64_t seed) {
  std::vector<ByteBuffer> inputs;
  for (int w = 0; w < n; ++w) {
    Rng rng(derive_seed(seed, w));
    std::vector<float> xs(count);
    for (auto& x : xs) x = static_cast<float>(rng.next_gaussian());
    inputs.push_back(float_payload(xs));
  }
  return inputs;
}

std::vector<float> exact_sum(const std::vector<ByteBuffer>& inputs) {
  auto acc = floats_of(inputs[0]);
  for (std::size_t w = 1; w < inputs.size(); ++w) {
    const auto xs = floats_of(inputs[w]);
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += xs[i];
  }
  return acc;
}

/// One chunk spanning the whole payload: the monolithic collective.
std::vector<ChunkRange> whole(const ByteBuffer& data, const ReduceOp& op) {
  return chunk_payload(data.size(), 0, op.granularity());
}

// Runs a collective on the threaded fabric; returns every rank's final
// buffer.
template <typename Body>
std::vector<ByteBuffer> run_collective(const std::vector<ByteBuffer>& inputs,
                                       Body body) {
  const auto n = static_cast<int>(inputs.size());
  Fabric fabric(n);
  std::vector<ByteBuffer> results(inputs.begin(), inputs.end());
  run_workers(fabric, [&](Communicator& comm) {
    body(comm, results[static_cast<std::size_t>(comm.rank())]);
  });
  return results;
}

class RingAllReduceTest : public ::testing::TestWithParam<int> {};

TEST_P(RingAllReduceTest, SumsFloatsAcrossRanks) {
  const int n = GetParam();
  const auto inputs = random_float_inputs(n, 103, 42);
  const auto expected = exact_sum(inputs);
  const auto op = make_fp32_sum();
  const auto results = run_collective(
      inputs,
      [&](Communicator& comm, ByteBuffer& data) {
        chunked_ring_all_reduce(comm, data, whole(data, *op), *op);
      });
  for (const auto& result : results) {
    const auto got = floats_of(result);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], expected[i], 1e-4f);
    }
  }
}

TEST_P(RingAllReduceTest, AllRanksAgreeBitForBit) {
  const int n = GetParam();
  const auto inputs = random_float_inputs(n, 64, 7);
  const auto op = make_fp32_sum();
  const auto results = run_collective(
      inputs,
      [&](Communicator& comm, ByteBuffer& data) {
        chunked_ring_all_reduce(comm, data, whole(data, *op), *op);
      });
  for (const auto& result : results) EXPECT_EQ(result, results[0]);
}

TEST_P(RingAllReduceTest, LocalReferenceIsBitIdentical) {
  const int n = GetParam();
  const auto inputs = random_float_inputs(n, 97, 19);
  const auto op = make_fp32_sum();
  const auto reference = local_ring_all_reduce(inputs, *op);
  const auto results = run_collective(
      inputs,
      [&](Communicator& comm, ByteBuffer& data) {
        chunked_ring_all_reduce(comm, data, whole(data, *op), *op);
      });
  EXPECT_EQ(results[0], reference);
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, RingAllReduceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(RingAllReduce, Fp16LocalReferenceBitIdentical) {
  // FP16 summation is order-sensitive; the reference must replicate the
  // ring's fold order exactly.
  const int n = 4;
  std::vector<ByteBuffer> inputs;
  for (int w = 0; w < n; ++w) {
    Rng rng(derive_seed(3, w));
    ByteBuffer buf;
    ByteWriter writer(buf);
    for (int i = 0; i < 50; ++i) {
      writer.put<std::uint16_t>(float_to_half_bits(
          static_cast<float>(rng.next_gaussian()) * 100.0f));
    }
    inputs.push_back(std::move(buf));
  }
  const auto op = make_fp16_sum();
  const auto reference = local_ring_all_reduce(inputs, *op);
  const auto results = run_collective(
      inputs,
      [&](Communicator& comm, ByteBuffer& data) {
        chunked_ring_all_reduce(comm, data, whole(data, *op), *op);
      });
  for (const auto& r : results) EXPECT_EQ(r, reference);
}

TEST(RingAllReduce, SatIntLocalReferenceBitIdentical) {
  // Saturating add is NOT associative: this test pins the canonical order.
  const int n = 5;
  std::vector<ByteBuffer> inputs;
  for (int w = 0; w < n; ++w) {
    Rng rng(derive_seed(11, w));
    std::vector<std::int32_t> lanes(40);
    for (auto& l : lanes) {
      l = static_cast<std::int32_t>(rng.next_below(15)) - 7;
    }
    inputs.push_back(pack_signed_lanes(lanes, 4));
  }
  const auto op = make_sat_int(4, nullptr);
  const auto reference = local_ring_all_reduce(inputs, *op);
  const auto results = run_collective(
      inputs,
      [&](Communicator& comm, ByteBuffer& data) {
        chunked_ring_all_reduce(comm, data, whole(data, *op), *op);
      });
  for (const auto& r : results) EXPECT_EQ(r, reference);
}

TEST(RingAllReduce, WireVolumeMatchesTheory) {
  // Ring all-reduce sends 2(n-1)/n x payload per worker.
  const int n = 4;
  const std::size_t payload = 400;  // bytes, divisible by n*granularity
  auto inputs = random_float_inputs(n, payload / 4, 23);
  Fabric fabric(n);
  std::vector<ByteBuffer> bufs(inputs.begin(), inputs.end());
  const auto op = make_fp32_sum();
  const auto chunks = whole(bufs[0], *op);
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

TEST(TreeAllReduce, MatchesExactSumAndReference) {
  for (int n : {1, 2, 3, 4, 7, 8}) {
    const auto inputs = random_float_inputs(n, 51, 100 + n);
    const auto expected = exact_sum(inputs);
    const auto op = make_fp32_sum();
    const auto reference = local_tree_all_reduce(inputs, *op);
    const auto results = run_collective(
        inputs,
        [&](Communicator& comm, ByteBuffer& data) {
          chunked_tree_all_reduce(comm, data, whole(data, *op), *op);
        });
    for (const auto& result : results) {
      EXPECT_EQ(result, reference) << "n=" << n;
      const auto got = floats_of(result);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], expected[i], 1e-4f);
      }
    }
  }
}

TEST(AllGather, EveryRankSeesEveryPayload) {
  const int n = 4;
  Fabric fabric(n);
  std::vector<std::vector<ByteBuffer>> gathered(n);
  run_workers(fabric, [&](Communicator& comm) {
    ByteBuffer mine(static_cast<std::size_t>(comm.rank() + 1),
                    static_cast<std::byte>(comm.rank()));
    gathered[static_cast<std::size_t>(comm.rank())] =
        all_gather(comm, std::move(mine));
  });
  for (int w = 0; w < n; ++w) {
    ASSERT_EQ(gathered[w].size(), static_cast<std::size_t>(n));
    for (int src = 0; src < n; ++src) {
      EXPECT_EQ(gathered[w][src].size(), static_cast<std::size_t>(src + 1));
      EXPECT_EQ(gathered[w][src][0], static_cast<std::byte>(src));
    }
  }
}

TEST(AllGather, WireVolumeIsNMinusOneTimesPayload) {
  const int n = 4;
  const std::size_t payload = 100;
  Fabric fabric(n);
  run_workers(fabric, [&](Communicator& comm) {
    (void)all_gather(comm, ByteBuffer(payload));
  });
  for (int w = 0; w < n; ++w) {
    EXPECT_EQ(fabric.bytes_sent(w), payload * (n - 1));
  }
}

TEST(Broadcast, AllRootsWork) {
  const int n = 5;
  for (int root = 0; root < n; ++root) {
    Fabric fabric(n);
    std::vector<ByteBuffer> bufs(n);
    run_workers(fabric, [&](Communicator& comm) {
      ByteBuffer data;
      if (comm.rank() == root) data = ByteBuffer(7, std::byte{0x5A});
      broadcast(comm, data, root);
      bufs[static_cast<std::size_t>(comm.rank())] = std::move(data);
    });
    for (const auto& buf : bufs) {
      EXPECT_EQ(buf, ByteBuffer(7, std::byte{0x5A})) << "root=" << root;
    }
  }
}

TEST(PsAggregate, MatchesReferenceAndSum) {
  const int n = 4;
  const auto inputs = random_float_inputs(n, 33, 55);
  const auto expected = exact_sum(inputs);
  const auto op = make_fp32_sum();
  const auto reference = local_ps_aggregate(inputs, *op, 0);
  const auto results = run_collective(
      inputs,
      [&](Communicator& comm, ByteBuffer& data) {
        chunked_ps_aggregate(comm, data, whole(data, *op), *op, 0);
      });
  for (const auto& result : results) {
    EXPECT_EQ(result, reference);
  }
  const auto got = floats_of(results[1]);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-4f);
  }
}

TEST(PsAggregate, ServerLinkCarriesAlmostAllTraffic) {
  const int n = 4;
  const std::size_t payload = 120;
  auto inputs = random_float_inputs(n, payload / 4, 66);
  Fabric fabric(n);
  std::vector<ByteBuffer> bufs(inputs.begin(), inputs.end());
  const auto op = make_fp32_sum();
  const auto chunks = whole(bufs[0], *op);
  run_workers(fabric, [&](Communicator& comm) {
    chunked_ps_aggregate(comm, bufs[static_cast<std::size_t>(comm.rank())],
                         chunks, *op, 0);
  });
  // Server broadcasts (n-1) copies; clients send one payload each —
  // the many-to-one / one-to-many pattern the paper criticises.
  EXPECT_EQ(fabric.bytes_sent(0), payload * (n - 1));
  for (int w = 1; w < n; ++w) EXPECT_EQ(fabric.bytes_sent(w), payload);
}

TEST(RingBlockOffsets, AlignedAndComplete) {
  const auto off = ring_block_offsets(100, 4, 4);
  ASSERT_EQ(off.size(), 5u);
  EXPECT_EQ(off.front(), 0u);
  EXPECT_EQ(off.back(), 100u);
  for (std::size_t i = 0; i + 1 < off.size(); ++i) {
    EXPECT_EQ(off[i] % 4, 0u);
    EXPECT_LE(off[i], off[i + 1]);
  }
}

TEST(RingBlockOffsets, UnevenSplitDistributesRemainder) {
  const auto off = ring_block_offsets(28, 3, 4);  // 7 floats over 3 ranks
  EXPECT_EQ(off[1] - off[0], 12u);  // 3 floats
  EXPECT_EQ(off[2] - off[1], 8u);   // 2 floats
  EXPECT_EQ(off[3] - off[2], 8u);   // 2 floats
}

TEST(RingBlockOffsets, MisalignedSizeThrows) {
  EXPECT_THROW(ring_block_offsets(10, 2, 4), std::logic_error);
}

TEST(RunWorkers, PropagatesExceptions) {
  Fabric fabric(2);
  EXPECT_THROW(run_workers(fabric,
                           [](Communicator& comm) {
                             if (comm.rank() == 1) {
                               throw Error("worker failure");
                             }
                           }),
               Error);
}

TEST(RingAllReduce, EmptyPayloadIsFine) {
  const auto op = make_fp32_sum();
  std::vector<ByteBuffer> inputs(3);
  const auto reference = local_ring_all_reduce(inputs, *op);
  EXPECT_TRUE(reference.empty());
}

}  // namespace
}  // namespace gcs::comm
