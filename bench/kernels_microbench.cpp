// google-benchmark microbenchmarks for the compression kernels.
//
// These measure the REAL CPU kernels (the tables' throughput numbers come
// from the calibrated testbed model; these benches validate the relative
// ordering the model assumes: selection > chunk-norms, full RHT > partial
// RHT, orthogonalization superlinear in r, etc.).
// The BM_Kernel* group benches the src/kernels backends head to head
// (scalar vs AVX2, selected per benchmark instance, no global dispatch
// involved); bytes_per_second is the per-kernel MB/s a backend sustains on
// the fp32 input side.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "hadamard/hadamard.h"
#include "kernels/kernels.h"
#include "lowrank/orthogonalize.h"
#include "numeric/half.h"
#include "quant/packing.h"
#include "quant/quantize.h"
#include "sparse/chunks.h"
#include "sparse/sparse_wire.h"
#include "sparse/topk.h"

namespace {

using namespace gcs;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<float> x(n);
  for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
  return x;
}

void BM_FwhtFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_vec(n);
  for (auto _ : state) {
    fwht(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_FwhtFull)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_FwhtPartial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto iters = static_cast<unsigned>(state.range(1));
  auto x = random_vec(n);
  for (auto _ : state) {
    fwht(std::span<float>(x), iters);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_FwhtPartial)->Args({1 << 20, 13})->Args({1 << 20, 8});

void BM_TopKSelect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto x = random_vec(n);
  for (auto _ : state) {
    auto idx = top_k_indices(x, k);
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_TopKSelect)
    ->Args({1 << 20, 1 << 14})
    ->Args({1 << 20, 1 << 17});

void BM_ChunkNorms(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec(n);
  std::vector<float> norms(num_chunks(n, 64));
  for (auto _ : state) {
    chunk_squared_norms(x, 64, norms);
    benchmark::DoNotOptimize(norms.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ChunkNorms)->Arg(1 << 20);

void BM_PackLanes(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto bits = static_cast<unsigned>(state.range(1));
  std::vector<std::uint16_t> levels(n);
  Rng rng(3);
  for (auto& l : levels) {
    l = static_cast<std::uint16_t>(rng.next_u64() & ((1u << bits) - 1));
  }
  for (auto _ : state) {
    auto packed = pack_lanes(levels, bits);
    benchmark::DoNotOptimize(packed.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_PackLanes)->Args({1 << 18, 2})->Args({1 << 18, 4});

void BM_Orthogonalize(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto r = static_cast<std::size_t>(state.range(1));
  const auto src = random_vec(rows * r, 5);
  std::vector<float> m = src;
  for (auto _ : state) {
    m = src;
    orthogonalize_columns(m, rows, r);
    benchmark::DoNotOptimize(m.data());
  }
  // FLOP count grows as r^2: the superlinear term behind Table 9.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              orthogonalize_flops(rows, r)));
}
BENCHMARK(BM_Orthogonalize)
    ->Args({4096, 4})
    ->Args({4096, 16})
    ->Args({4096, 64});

void BM_Fp16RoundTrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_vec(n, 6);
  for (auto _ : state) {
    round_trip_half(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_Fp16RoundTrip)->Arg(1 << 18);

void BM_SparseEncodeDecode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto x = random_vec(n, 7);
  const auto idx = top_k_indices(x, k);
  const auto sparse = extract_sparse(x, idx);
  for (auto _ : state) {
    const auto buf = encode_sparse_fp16(sparse);
    auto back = decode_sparse_fp16(buf);
    benchmark::DoNotOptimize(back.indices.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_SparseEncodeDecode)->Args({1 << 20, 1 << 14});

// ---- src/kernels backend benches (per-kernel MB/s, scalar vs AVX2) ----

/// Picks the backend for a BM_Kernel* instance from benchmark arg 0
/// (0 = scalar, 1 = avx2); returns null when the host lacks AVX2.
const kernels::Backend* backend_arg(benchmark::State& state) {
  if (state.range(0) == 0) return &kernels::scalar();
  if (!kernels::avx2_supported()) {
    state.SkipWithError("AVX2 not supported on this host");
    return nullptr;
  }
  return &kernels::avx2();
}

void set_fp32_bytes(benchmark::State& state, std::size_t n) {
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}

void BM_KernelFp32ToFp16(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  const auto x = random_vec(n, 21);
  std::vector<std::uint16_t> out(n);
  for (auto _ : state) {
    backend->fp32_to_fp16(x.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelFp32ToFp16)->Arg(0)->Arg(1);

void BM_KernelFp16ToFp32(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  const auto x = random_vec(n, 22);
  std::vector<std::uint16_t> half(n);
  kernels::scalar().fp32_to_fp16(x.data(), n, half.data());
  std::vector<float> out(n);
  for (auto _ : state) {
    backend->fp16_to_fp32(half.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelFp16ToFp32)->Arg(0)->Arg(1);

void BM_KernelGatherFp16(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20, k = 1 << 16;
  const auto x = random_vec(n, 23);
  const auto idx = top_k_indices(x, k);
  std::vector<std::uint16_t> out(k);
  for (auto _ : state) {
    backend->gather_fp32_to_fp16(x.data(), idx.data(), k, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  set_fp32_bytes(state, k);
}
BENCHMARK(BM_KernelGatherFp16)->Arg(0)->Arg(1);

void BM_KernelFwhtLevel(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  auto x = random_vec(n, 24);
  const auto h = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    backend->fwht_level(x.data(), n, h);
    benchmark::DoNotOptimize(x.data());
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelFwhtLevel)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 256})
    ->Args({1, 256});

void BM_KernelAdd(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  const auto a = random_vec(n, 28);
  const auto b = random_vec(n, 29);
  std::vector<float> out(n);
  for (auto _ : state) {
    backend->add(a.data(), b.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelAdd)->Arg(0)->Arg(1);

void BM_KernelMinMax(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  const auto x = random_vec(n, 30);
  for (auto _ : state) {
    float lo, hi;
    backend->min_max(x.data(), n, &lo, &hi);
    benchmark::DoNotOptimize(lo);
    benchmark::DoNotOptimize(hi);
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelMinMax)->Arg(0)->Arg(1);

void BM_KernelThcEncodeLanes(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  const unsigned q = 4, b = 4;
  const auto x = random_vec(n, 25);
  std::vector<float> u(n);
  Rng rng(26);
  for (auto& v : u) v = rng.next_float();
  const auto range = compute_range(x);
  std::vector<std::uint8_t> out(n * b / 8);
  for (auto _ : state) {
    backend->thc_encode_lanes(x.data(), u.data(), n, range.lo, range.hi, q,
                              b, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelThcEncodeLanes)->Arg(0)->Arg(1);

void BM_KernelThcDecodeLanes(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  const unsigned q = 4, b = 4;
  std::vector<std::uint8_t> wire(n * b / 8);
  Rng rng(27);
  for (auto& v : wire) v = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<float> out(n);
  for (auto _ : state) {
    backend->thc_decode_lanes(wire.data(), n, -1.0f, 1.0f, q, b, 8,
                              out.data());
    benchmark::DoNotOptimize(out.data());
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelThcDecodeLanes)->Arg(0)->Arg(1);

void BM_KernelUniformFill(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  const StreamSplit split(n);
  const StreamLanes lanes = split.lanes(17);
  std::vector<float> out(n);
  for (auto _ : state) {
    backend->uniform_fill(lanes, n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelUniformFill)->Arg(0)->Arg(1);

void BM_KernelSignApply(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  const auto x = random_vec(n, 26);
  std::vector<std::uint64_t> bits((n + 63) / 64);
  backend->sign_bits_fill(StreamSplit(n).lanes(5), n, bits.data());
  std::vector<float> out(n);
  for (auto _ : state) {
    backend->sign_apply(x.data(), bits.data(), 0, n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelSignApply)->Arg(0)->Arg(1);

void BM_KernelDenseForward(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  // The LM proxy's 64 -> 1024 layer over a batch of 32.
  const std::size_t batch = 32, in = 64, out = 1024;
  const auto w = random_vec(in * out, 27);
  const auto b = random_vec(out, 28);
  const auto x = random_vec(batch * in, 29);
  std::vector<float> z(batch * out);
  for (auto _ : state) {
    backend->dense_forward(w.data(), b.data(), x.data(), batch, in, out,
                           z.data());
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * in * out));
}
BENCHMARK(BM_KernelDenseForward)->Arg(0)->Arg(1);

void BM_KernelFp16Sum(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  std::vector<std::uint16_t> acc(n), in(n);
  kernels::scalar().fp32_to_fp16(random_vec(n, 31).data(), n, acc.data());
  kernels::scalar().fp32_to_fp16(random_vec(n, 32).data(), n, in.data());
  const auto start = acc;
  for (auto _ : state) {
    // Refold from the same accumulator so repeated sums never reach Inf
    // (which would take the vector kernel's scalar fallback).
    state.PauseTiming();
    acc = start;
    state.ResumeTiming();
    backend->fp16_sum(acc.data(), in.data(), n);
    benchmark::DoNotOptimize(acc.data());
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelFp16Sum)->Arg(0)->Arg(1);

/// The packed Sat fold THC's all-reduce hops run, per lane width; bytes
/// are counted per coordinate (4 bytes) like the other kernel rows.
void BM_KernelSatAddPacked(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const auto b = static_cast<unsigned>(state.range(1));
  const std::size_t n = 1 << 20;
  const std::size_t nbytes = n * b / 8;
  std::vector<std::uint8_t> acc(nbytes), in(nbytes);
  Rng rng(33);
  for (auto& v : acc) v = static_cast<std::uint8_t>(rng.next_u64());
  for (auto& v : in) v = static_cast<std::uint8_t>(rng.next_u64());
  const auto start = acc;
  for (auto _ : state) {
    // Refold from the same accumulator: repeated folds would saturate it
    // and change the scalar kernel's clip branches.
    state.PauseTiming();
    acc = start;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        backend->sat_add_packed(acc.data(), in.data(), nbytes, b));
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelSatAddPacked)
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({0, 8})
    ->Args({1, 8});

/// TopKC's chunk scores (chunk = 64, the default at b = 8), one chunk per
/// lane on AVX2.
void BM_KernelChunkSqNorms(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  const auto chunk = static_cast<std::size_t>(state.range(1));
  const auto x = random_vec(n, 34);
  std::vector<float> out(num_chunks(n, chunk));
  for (auto _ : state) {
    backend->chunk_sq_norms(x.data(), n, chunk, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelChunkSqNorms)
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({0, 128})
    ->Args({1, 128});

// PowerSGD's matmul panels at rank 4 on the two bert25 layer shapes
// (arg 1 = rows, arg 2 = cols); bytes are M's fp32 bytes.

struct PanelOperands {
  std::size_t rows, cols;
  std::vector<float> m, p, q, out;
};

PanelOperands panel_operands(benchmark::State& state) {
  PanelOperands o;
  o.rows = static_cast<std::size_t>(state.range(1));
  o.cols = static_cast<std::size_t>(state.range(2));
  o.m = random_vec(o.rows * o.cols, 35);
  o.p = random_vec(o.rows * 4, 36);
  o.q = random_vec(o.cols * 4, 37);
  o.out.resize(o.rows * o.cols);
  return o;
}

void BM_KernelPanelMQ(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  auto o = panel_operands(state);
  for (auto _ : state) {
    backend->panel_mq(o.m.data(), o.q.data(), o.rows, o.cols, 4, o.p.data());
    benchmark::DoNotOptimize(o.p.data());
    benchmark::ClobberMemory();
  }
  set_fp32_bytes(state, o.rows * o.cols);
}

void BM_KernelPanelMtP(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  auto o = panel_operands(state);
  for (auto _ : state) {
    backend->panel_mtp(o.m.data(), o.p.data(), o.rows, o.cols, 4, o.q.data());
    benchmark::DoNotOptimize(o.q.data());
    benchmark::ClobberMemory();
  }
  set_fp32_bytes(state, o.rows * o.cols);
}

void BM_KernelPanelPQt(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  auto o = panel_operands(state);
  for (auto _ : state) {
    backend->panel_pqt(o.p.data(), o.q.data(), o.rows, o.cols, 4,
                       o.out.data());
    benchmark::DoNotOptimize(o.out.data());
    benchmark::ClobberMemory();
  }
  set_fp32_bytes(state, o.rows * o.cols);
}

void panel_args(benchmark::internal::Benchmark* b) {
  for (const auto& shape : {std::pair{4096, 1024}, std::pair{1024, 1024}}) {
    for (int backend : {0, 1}) b->Args({backend, shape.first, shape.second});
  }
  b->Unit(benchmark::kMillisecond);
}
BENCHMARK(BM_KernelPanelMQ)->Apply(panel_args);
BENCHMARK(BM_KernelPanelMtP)->Apply(panel_args);
BENCHMARK(BM_KernelPanelPQt)->Apply(panel_args);

}  // namespace

BENCHMARK_MAIN();
