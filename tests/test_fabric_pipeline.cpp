// Integration: the compression pipelines' collective calls, executed over
// the REAL threaded fabric instead of the local reference aggregators,
// agree across ranks and with the exact aggregate. The collectives run as
// one-chunk ring all-reduces (the monolithic schedule).
#include <gtest/gtest.h>

#include <cstring>

#include "comm/chunked_collectives.h"
#include "comm/fabric.h"
#include "comm/group.h"
#include "common/rng.h"
#include "numeric/half.h"
#include "quant/quantize.h"
#include "quant/satint.h"
#include "sparse/chunks.h"
#include "oracles.h"

namespace gcs {
namespace {

using gcs::ByteBuffer;

/// Ring all-reduce of the whole payload as one chunk.
void ring_reduce(comm::Communicator& comm, ByteBuffer& data,
                 const comm::ReduceOp& op) {
  comm::chunked_ring_all_reduce(
      comm, data, comm::chunk_payload(data.size(), 0, op.granularity()), op);
}

std::vector<std::vector<float>> random_grads(int n, std::size_t d,
                                             std::uint64_t seed) {
  std::vector<std::vector<float>> grads(n, std::vector<float>(d));
  for (int w = 0; w < n; ++w) {
    Rng rng(derive_seed(seed, w));
    for (auto& v : grads[w]) v = static_cast<float>(rng.next_gaussian());
  }
  return grads;
}

// Runs the TopKC wire protocol end-to-end on the threaded fabric: FP16
// norm consensus -> local top-J selection -> FP16 chunk all-reduce.
TEST(FabricPipeline, TopKCConsensusAndAggregationOverThreads) {
  const int n = 4;
  const std::size_t d = 1024, c = 32, j = 8;
  const auto grads = random_grads(n, d, 1);

  comm::Fabric fabric(n);
  const auto fp16_sum = comm::make_fp16_sum();
  std::vector<std::vector<std::uint32_t>> selections(n);
  std::vector<ByteBuffer> reduced(n);

  comm::run_workers(fabric, [&](comm::Communicator& comm_handle) {
    const auto rank = static_cast<std::size_t>(comm_handle.rank());
    // Stage 1: FP16 chunk-norm all-reduce.
    std::vector<float> norms(num_chunks(d, c));
    chunk_squared_norms(grads[rank], c, norms);
    ByteBuffer norm_payload;
    ByteWriter w(norm_payload);
    for (float s : norms) w.put<std::uint16_t>(float_to_half_bits(s));
    ring_reduce(comm_handle, norm_payload, *fp16_sum);
    // Stage 2: local (consensus) selection from identical scores.
    std::vector<float> scores(norms.size());
    const auto* bits =
        reinterpret_cast<const std::uint16_t*>(norm_payload.data());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      scores[i] = half_bits_to_float(bits[i]);
    }
    selections[rank] = select_top_chunks(scores, j);
    // Stage 3: FP16 all-reduce of the selected chunks.
    std::vector<float> gathered(j * c);
    gather_chunks(grads[rank], c, selections[rank], gathered);
    ByteBuffer payload;
    ByteWriter pw(payload);
    for (float v : gathered) pw.put<std::uint16_t>(float_to_half_bits(v));
    ring_reduce(comm_handle, payload, *fp16_sum);
    reduced[rank] = std::move(payload);
  });

  // Every rank selected the same chunks and holds the same payload.
  for (int w = 1; w < n; ++w) {
    EXPECT_EQ(selections[w], selections[0]);
    EXPECT_EQ(reduced[w], reduced[0]);
  }
  // And the values match an exact FP32 aggregation within FP16 precision.
  const auto* bits =
      reinterpret_cast<const std::uint16_t*>(reduced[0].data());
  std::vector<float> gathered(j * c);
  for (std::size_t slot = 0; slot < j * c; ++slot) {
    const std::size_t coord =
        static_cast<std::size_t>(selections[0][slot / c]) * c + slot % c;
    double sum = 0.0;
    for (const auto& g : grads) sum += g[coord];
    EXPECT_NEAR(half_bits_to_float(bits[slot]), sum,
                std::abs(sum) / 128.0 + 1e-2);
  }
}

// Runs THC's wire protocol over threads: min/max range consensus followed
// by a saturating q-bit ring all-reduce of centered levels.
TEST(FabricPipeline, ThcRangeConsensusAndSatReduceOverThreads) {
  const int n = 4;
  const unsigned q = 4;
  const std::size_t d = 512;
  const auto grads = random_grads(n, d, 2);

  comm::Fabric fabric(n);
  const auto min_op = comm::make_fp32_min();
  const auto max_op = comm::make_fp32_max();
  SatStats stats;
  const auto sat_op = comm::make_sat_int(q, &stats);
  std::vector<ByteBuffer> reduced(n);
  std::vector<QuantRange> shared_ranges(n);

  comm::run_workers(fabric, [&](comm::Communicator& comm_handle) {
    const auto rank = static_cast<std::size_t>(comm_handle.rank());
    const auto range = compute_range(grads[rank]);
    ByteBuffer lo(sizeof(float)), hi(sizeof(float));
    std::memcpy(lo.data(), &range.lo, sizeof(float));
    std::memcpy(hi.data(), &range.hi, sizeof(float));
    ring_reduce(comm_handle, lo, *min_op);
    ring_reduce(comm_handle, hi, *max_op);
    QuantRange shared;
    std::memcpy(&shared.lo, lo.data(), sizeof(float));
    std::memcpy(&shared.hi, hi.data(), sizeof(float));
    shared_ranges[rank] = shared;

    Rng rng(derive_seed(7, rank));
    std::vector<std::uint16_t> levels(d);
    quantize_stochastic(grads[rank], shared, q, rng, levels);
    std::vector<std::int32_t> lanes(d);
    const std::int32_t offset = 1 << (q - 1);
    for (std::size_t i = 0; i < d; ++i) {
      lanes[i] = static_cast<std::int32_t>(levels[i]) - offset;
    }
    ByteBuffer payload = pack_signed_lanes(lanes, q);
    ring_reduce(comm_handle, payload, *sat_op);
    reduced[rank] = std::move(payload);
  });

  // All ranks agree on the shared range and the reduced payload.
  for (int w = 1; w < n; ++w) {
    EXPECT_EQ(shared_ranges[w].lo, shared_ranges[0].lo);
    EXPECT_EQ(shared_ranges[w].hi, shared_ranges[0].hi);
    EXPECT_EQ(reduced[w], reduced[0]);
  }
  // Decoded sums approximate the FP32 truth within quantization error.
  const auto sums = unpack_signed_lanes(reduced[0], d, q);
  const float step =
      shared_ranges[0].width() / static_cast<float>((1u << q) - 1u);
  std::size_t close = 0;
  for (std::size_t i = 0; i < d; ++i) {
    double truth = 0.0;
    for (const auto& g : grads) truth += g[i];
    const float decoded = dequantize_level_sum(
        sums[i] + n * (1 << (q - 1)), n, shared_ranges[0], q);
    if (std::abs(decoded - truth) <= n * step) ++close;
  }
  // Saturation may clip a few lanes; the vast majority must decode within
  // the n-fold quantization step.
  EXPECT_GT(static_cast<double>(close) / d, 0.95);
}

}  // namespace
}  // namespace gcs
