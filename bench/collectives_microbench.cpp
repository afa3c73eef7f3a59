// google-benchmark microbenchmarks for the comm substrate: threaded fabric
// collectives (reductions as one-chunk chunked collectives, the monolithic
// schedule) and their local reference aggregators.
#include <benchmark/benchmark.h>

#include <cstring>

#include "comm/chunked_collectives.h"
#include "comm/fabric.h"
#include "comm/group.h"
#include "common/rng.h"
#include "quant/packing.h"

namespace {

using namespace gcs;
using namespace gcs::comm;

std::vector<ByteBuffer> float_inputs(int n, std::size_t count) {
  std::vector<ByteBuffer> inputs;
  for (int w = 0; w < n; ++w) {
    Rng rng(derive_seed(42, w));
    ByteBuffer buf(count * sizeof(float));
    auto* f = reinterpret_cast<float*>(buf.data());
    for (std::size_t i = 0; i < count; ++i) {
      f[i] = static_cast<float>(rng.next_gaussian());
    }
    inputs.push_back(std::move(buf));
  }
  return inputs;
}

void BM_RingAllReduceThreaded(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto count = static_cast<std::size_t>(state.range(1));
  const auto inputs = float_inputs(n, count);
  const auto op = make_fp32_sum();
  const auto chunks = chunk_payload(inputs[0].size(), 0, op->granularity());
  for (auto _ : state) {
    Fabric fabric(n);
    std::vector<ByteBuffer> bufs(inputs.begin(), inputs.end());
    run_workers(fabric, [&](Communicator& comm) {
      chunked_ring_all_reduce(
          comm, bufs[static_cast<std::size_t>(comm.rank())], chunks, *op);
    });
    benchmark::DoNotOptimize(bufs[0].data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * 4 * n));
}
BENCHMARK(BM_RingAllReduceThreaded)
    ->Args({4, 1 << 14})
    ->Args({4, 1 << 18})
    ->Args({8, 1 << 16});

void BM_RingAllReduceLocalReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto count = static_cast<std::size_t>(state.range(1));
  const auto inputs = float_inputs(n, count);
  const auto op = make_fp32_sum();
  for (auto _ : state) {
    auto out = local_ring_all_reduce(inputs, *op);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * 4 * n));
}
BENCHMARK(BM_RingAllReduceLocalReference)
    ->Args({4, 1 << 14})
    ->Args({4, 1 << 18});

void BM_TreeAllReduceThreaded(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto count = static_cast<std::size_t>(state.range(1));
  const auto inputs = float_inputs(n, count);
  const auto op = make_fp32_sum();
  const auto chunks = chunk_payload(inputs[0].size(), 0, op->granularity());
  for (auto _ : state) {
    Fabric fabric(n);
    std::vector<ByteBuffer> bufs(inputs.begin(), inputs.end());
    run_workers(fabric, [&](Communicator& comm) {
      chunked_tree_all_reduce(
          comm, bufs[static_cast<std::size_t>(comm.rank())], chunks, *op);
    });
    benchmark::DoNotOptimize(bufs[0].data());
  }
}
BENCHMARK(BM_TreeAllReduceThreaded)->Args({4, 1 << 16});

void BM_AllGatherThreaded(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto count = static_cast<std::size_t>(state.range(1));
  const auto inputs = float_inputs(n, count);
  for (auto _ : state) {
    Fabric fabric(n);
    std::vector<std::vector<ByteBuffer>> gathered(n);
    run_workers(fabric, [&](Communicator& comm) {
      gathered[static_cast<std::size_t>(comm.rank())] = all_gather(
          comm, inputs[static_cast<std::size_t>(comm.rank())]);
    });
    benchmark::DoNotOptimize(gathered[0].data());
  }
}
BENCHMARK(BM_AllGatherThreaded)->Args({4, 1 << 16});

void BM_PsAggregateThreaded(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto count = static_cast<std::size_t>(state.range(1));
  const auto inputs = float_inputs(n, count);
  const auto op = make_fp32_sum();
  const auto chunks = chunk_payload(inputs[0].size(), 0, op->granularity());
  for (auto _ : state) {
    Fabric fabric(n);
    std::vector<ByteBuffer> bufs(inputs.begin(), inputs.end());
    run_workers(fabric, [&](Communicator& comm) {
      chunked_ps_aggregate(comm, bufs[static_cast<std::size_t>(comm.rank())],
                           chunks, *op, 0);
    });
    benchmark::DoNotOptimize(bufs[0].data());
  }
}
BENCHMARK(BM_PsAggregateThreaded)->Args({4, 1 << 16});

void BM_SatIntRingReduce(benchmark::State& state) {
  const int n = 4;
  const auto lanes = static_cast<std::size_t>(state.range(0));
  std::vector<ByteBuffer> inputs;
  for (int w = 0; w < n; ++w) {
    Rng rng(derive_seed(7, w));
    // Offset-binary 4-bit lanes of the signed values -7..7.
    std::vector<std::uint16_t> raw(lanes);
    for (auto& l : raw) l = static_cast<std::uint16_t>(rng.next_below(15) + 1);
    inputs.push_back(pack_lanes(raw, 4));
  }
  const auto op = make_sat_int(4, nullptr);
  for (auto _ : state) {
    auto out = local_ring_all_reduce(inputs, *op);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes * n));
}
BENCHMARK(BM_SatIntRingReduce)->Arg(1 << 16)->Arg(1 << 19);

}  // namespace

BENCHMARK_MAIN();
