// Codec encode-side and collective-fold throughput per payload size.
//
// The paper's thesis is that utility is decided by end-to-end system cost,
// and encode CPU time is the dominant self-inflicted cost in this stack:
// the backward-overlap scheduler can only hide communication behind
// compute if encoding a bucket is fast enough to keep the wire busy. This
// bench times the encode side of every scheme — begin_round (rotation, EF
// compensation, TopK selection), every stage's per-worker encodes, and the
// intermediate consensus absorbs that gate later stages — and reports MB/s
// of gradient bytes processed. The decode rows time the rest of a round:
// the final stage's absorb plus finish (decode, reconstruction, EF
// residual), on the same MB/s-of-gradient scale.
//
// The fold rows time the two sum-type ReduceOps every chunked collective
// hop runs: fp16_sum (dense fp16, TopKC, PowerSGD) and sat_int4 (THC's
// default lanes), one in-place fold of a peer payload into a local one.
// Their MB/s counts the gradient bytes the payload encodes (4 bytes per
// coordinate), so a fold row reads on the same scale as the encode row of
// the same payload size.
//
// The kernel rows time THC's two per-coordinate passes that run outside
// the level kernels: rng/uniform_fill fills one stream of stochastic-
// rounding uniforms (the lane-parallel xoshiro fill), and rht/rotate runs
// one block-fused forward plus one inverse partial rotation (sign bits,
// 8192-float blocks) over the payload. Two more time TopK's halves of a
// round: topk/select is one worker's compensate pass fused with the key
// histogram plus the select over the threshold bucket's candidates, and
// topk/scatter validates both workers' gathered payloads and scatter-adds
// them into the output. Their kernel_MBps counts the gradient bytes
// covered (4 bytes per coordinate).
//
// Every row is the median of kBatches batches, each timing passes until
// its share of --min-seconds accumulates: a batch that meets a page-fault
// burst or a preempted core moves the median by one rank, where one mean
// over every pass took all of it in. The encode and decode rows also stop
// a batch at its share of --max-iters rounds, so a row runs about as many
// rounds as a single timed run did: the codecs carry state from round to
// round (PowerSGD's warm-started factors, every EF memory) over the same
// gradients, and a few hundred rounds drift PowerSGD's decode into a
// different, slower regime.
//
// BENCH_codec_throughput.json is bench_compare-gated against
// bench/baselines/ (--higher=encode_MBps,decode_MBps,fold_MBps,kernel_MBps,
// plus
// backend_speedup,
// which the gate tracks by name). The committed baseline is a measurement
// of the current kernel layer, and CI's tolerance comes from the measured
// run-to-run spread of repeated runs: the gate catches a broken dispatch
// or a dropped fusion, not jitter. Absolute MB/s is machine-dependent.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/bits.h"
#include "comm/group.h"
#include "comm/reduce_op.h"
#include "common/rng.h"
#include "core/baselines.h"
#include "core/powersgd_compressor.h"
#include "core/thc_compressor.h"
#include "core/topk_compressor.h"
#include "core/topkc_compressor.h"
#include "hadamard/hadamard.h"
#include "kernels/kernels.h"
#include "quant/packing.h"
#include "quant/satint.h"
#include "sparse/sparse_wire.h"
#include "sparse/topk.h"
#include "tensor/layout.h"

namespace {

using namespace gcs;
using namespace gcs::bench;

constexpr int kWorld = 2;
/// TopK's budget in bits per coordinate, for the scheme rows and the
/// topk/select and topk/scatter kernel rows alike.
constexpr double kTopKBits = 1.0;
/// Batches per row; a row reports their median MB/s.
constexpr int kBatches = 5;
/// No pass cap: the row runs for its time budget alone.
constexpr long kUnlimited = std::numeric_limits<long>::max();

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SchemeCase {
  std::string label;
  core::SchemeCodecPtr codec;
};

std::vector<SchemeCase> make_schemes(std::size_t d) {
  std::vector<SchemeCase> out;
  {
    core::BaselineConfig config;
    config.dimension = d;
    config.world_size = kWorld;
    config.comm_precision = Precision::kFp16;
    out.push_back({"dense_fp16", core::make_baseline_codec(config)});
  }
  {
    core::ThcConfig config;
    config.dimension = d;
    config.world_size = kWorld;  // defaults: b=q=4, Sat, partial rotation
    out.push_back({"thc", core::make_thc_codec(config)});
  }
  {
    core::TopKConfig config;
    config.dimension = d;
    config.world_size = kWorld;
    config.k = core::TopKConfig::k_for_bits(d, kTopKBits, false);
    out.push_back({"topk", core::make_topk_codec(config)});
  }
  {
    core::TopKCConfig config;
    config.dimension = d;
    config.world_size = kWorld;
    config.chunk_size = 64;
    config.num_top_chunks = core::TopKCConfig::j_for_bits(d, 64, 2.0);
    out.push_back({"topkc", core::make_topkc_codec(config)});
  }
  {
    core::PowerSgdConfig config;
    config.layout = make_transformer_like_layout(d);
    config.world_size = kWorld;
    config.rank = 4;
    out.push_back({"powersgd", core::make_powersgd_codec(config)});
  }
  return out;
}

/// Absorbs one stage's payloads through the local reference reduction.
void absorb_stage(core::CodecRound& session, const core::WireStage& stage,
                  const std::vector<ByteBuffer>& payloads) {
  if (stage.route == core::AggregationPath::kAllGather) {
    session.absorb_gathered(payloads);
  } else {
    session.absorb_reduced(comm::local_ring_all_reduce(payloads, *stage.op));
  }
}

/// One encode-side pass: begin_round, all workers' encodes per stage, and
/// the consensus absorbs that gate later stages. Stops before the last
/// stage's absorb (sessions are abandonable by the codec contract).
/// Returns the total wire bytes the pass produced.
std::size_t encode_side_pass(core::SchemeCodec& codec,
                             std::span<const std::span<const float>> views,
                             std::uint64_t round, int n_stages) {
  auto session = codec.begin_round(views, round);
  core::WireStage stage;
  std::vector<ByteBuffer> payloads(kWorld);
  std::size_t wire_bytes = 0;
  for (int s = 0; s < n_stages; ++s) {
    GCS_CHECK(session->next_stage(stage));
    for (int w = 0; w < kWorld; ++w) {
      payloads[static_cast<std::size_t>(w)] = session->encode(w);
      wire_bytes += payloads[static_cast<std::size_t>(w)].size();
    }
    if (s + 1 == n_stages) break;  // the rest is the decode side
    absorb_stage(*session, stage, payloads);
  }
  return wire_bytes;
}

/// One whole round; returns the seconds spent in the decode side: the
/// final stage's absorb plus finish (the last stage's reduction itself is
/// transport work and is not timed).
double decode_side_pass(core::SchemeCodec& codec,
                        std::span<const std::span<const float>> views,
                        std::uint64_t round, int n_stages,
                        std::vector<float>& out) {
  auto session = codec.begin_round(views, round);
  core::WireStage stage;
  std::vector<ByteBuffer> payloads(kWorld);
  for (int s = 0; s < n_stages; ++s) {
    GCS_CHECK(session->next_stage(stage));
    for (int w = 0; w < kWorld; ++w) {
      payloads[static_cast<std::size_t>(w)] = session->encode(w);
    }
    if (s + 1 < n_stages) absorb_stage(*session, stage, payloads);
  }
  const bool gathered = stage.route == core::AggregationPath::kAllGather;
  ByteBuffer reduced;
  if (!gathered) reduced = comm::local_ring_all_reduce(payloads, *stage.op);
  core::RoundStats stats;
  const double t0 = now_seconds();
  if (gathered) {
    session->absorb_gathered(payloads);
  } else {
    session->absorb_reduced(reduced);
  }
  session->finish(out, stats);
  return now_seconds() - t0;
}

int count_stages(core::SchemeCodec& codec,
                 std::span<const std::span<const float>> views) {
  auto session = codec.begin_round(views, 0);
  core::WireStage stage;
  int n_stages = 0;
  std::vector<ByteBuffer> payloads(kWorld);
  while (session->next_stage(stage)) {
    ++n_stages;
    for (int w = 0; w < kWorld; ++w) {
      payloads[static_cast<std::size_t>(w)] = session->encode(w);
    }
    absorb_stage(*session, stage, payloads);
  }
  return n_stages;
}

/// Runs `pass` (which returns the seconds it spent in timed work) in
/// kBatches batches, each until min_seconds / kBatches of timed work or
/// `max_passes` passes accumulate (at least one pass), and returns the
/// median batch's MB/s for `bytes_per_pass` bytes per pass.
template <typename Pass>
double median_batch_mbps(double bytes_per_pass, double min_seconds,
                         long max_passes, Pass&& pass) {
  std::array<double, kBatches> mbps{};
  for (double& batch : mbps) {
    double elapsed = 0.0;
    long passes = 0;
    while (passes < 1 ||
           (elapsed < min_seconds / kBatches && passes < max_passes)) {
      elapsed += pass();
      ++passes;
    }
    batch = bytes_per_pass * static_cast<double>(passes) / elapsed / 1e6;
  }
  std::nth_element(mbps.begin(), mbps.begin() + kBatches / 2, mbps.end());
  return mbps[kBatches / 2];
}

/// Gradient bytes one pass over every worker's d coordinates processes.
double round_bytes(std::size_t d) {
  return static_cast<double>(kWorld) * static_cast<double>(d) * 4.0;
}

/// A whole-round row's pass cap per batch: `max_iters` rounds per row.
long batch_rounds(int max_iters) {
  return std::max(1, max_iters / kBatches);
}

/// MB/s of gradient input (n * d * 4 bytes per pass) over encode-side
/// passes.
double measure_mbps(core::SchemeCodec& codec,
                    std::span<const std::span<const float>> views,
                    std::size_t d, int n_stages, double min_seconds,
                    int max_iters, std::uint64_t& round) {
  return median_batch_mbps(round_bytes(d), min_seconds,
                           batch_rounds(max_iters), [&] {
    const double t0 = now_seconds();
    encode_side_pass(codec, views, round++, n_stages);
    return now_seconds() - t0;
  });
}

/// MB/s of the d-coordinate gradient the payloads encode, folding `in`
/// into a fresh copy of `acc` per pass (the copy is not timed).
double measure_fold_mbps(const comm::ReduceOp& op, const ByteBuffer& acc,
                         const ByteBuffer& in, std::size_t d,
                         double min_seconds) {
  ByteBuffer work(acc.size());
  return median_batch_mbps(
      static_cast<double>(d) * 4.0, min_seconds, kUnlimited, [&] {
        std::memcpy(work.data(), acc.data(), acc.size());
        const double t0 = now_seconds();
        op.accumulate(work, in);
        return now_seconds() - t0;
      });
}

/// MB/s of gradient input over the decode side of whole rounds alone.
double measure_decode_mbps(core::SchemeCodec& codec,
                           std::span<const std::span<const float>> views,
                           std::size_t d, int n_stages, double min_seconds,
                           int max_iters, std::uint64_t& round) {
  std::vector<float> out(d);
  return median_batch_mbps(round_bytes(d), min_seconds,
                           batch_rounds(max_iters), [&] {
    return decode_side_pass(codec, views, round++, n_stages, out);
  });
}

/// MB/s of a d-coordinate gradient per call of `pass`.
template <typename Pass>
double measure_kernel_mbps(std::size_t d, double min_seconds, Pass&& pass) {
  return median_batch_mbps(static_cast<double>(d) * 4.0, min_seconds,
                           kUnlimited, [&] {
                             const double t0 = now_seconds();
                             pass();
                             return now_seconds() - t0;
                           });
}

struct KernelCase {
  std::string label;
  std::function<void()> pass;
};

/// THC's stream fill and block-fused rotation over one d-coordinate
/// gradient, with the codec's defaults (partial rotation, 32 KiB blocks),
/// and TopK's select and scatter over the workers' gradients.
std::vector<KernelCase> make_kernel_cases(
    std::span<const std::span<const float>> grads) {
  const std::span<const float> grad = grads[0];
  const std::size_t d = grad.size();
  const core::ThcConfig thc;  // shared_memory_bytes and seed defaults
  const unsigned iters = partial_iterations(next_pow2(d),
                                            thc.shared_memory_bytes);
  auto split = std::make_shared<StreamSplit>(d);
  auto uniforms = std::make_shared<std::vector<float>>(d);
  auto rht = std::make_shared<RhtTransform>(d, iters, thc.seed);
  auto bits = std::make_shared<std::vector<std::uint64_t>>(rht->sign_words());
  rht->sign_bits(1, *bits);
  auto rotated = std::make_shared<std::vector<float>>(rht->padded_size());
  auto out = std::make_shared<std::vector<float>>(d);
  std::vector<KernelCase> cases;
  cases.push_back({"rng/uniform_fill", [=] {
                     kernels::active().uniform_fill(split->lanes(7), d,
                                                    uniforms->data());
                   }});
  cases.push_back({"rht/rotate", [=] {
                     rht->forward(grad, *rotated, *bits,
                                  [](std::size_t, std::span<float>) {});
                     rht->inverse(*out, *bits, [&](std::size_t blk) {
                       return std::span<float>(*rotated).subspan(
                           blk * rht->block_size(), rht->block_size());
                     });
                   }});
  // TopK: worker 0's compensate (the second gradient stands in for its EF
  // memory) fused with the key histogram, then the select.
  const std::size_t k = core::TopKConfig::k_for_bits(d, kTopKBits, false);
  auto y = std::make_shared<std::vector<float>>(d);
  auto select = std::make_shared<TopKScratch>();
  select->hist.resize(kernels::kKeyHistSlots);
  auto idx = std::make_shared<std::vector<std::uint32_t>>();
  const std::span<const float> memory = grads[1];
  cases.push_back({"topk/select", [=] {
                     kernels::active().add_key_hist(grad.data(), memory.data(),
                                                    d, y->data(),
                                                    select->hist.data());
                     top_k_from_key_hist(*y, k, *select, *idx);
                   }});
  // Every worker's plain-index payload of its own top k, validated and
  // scatter-added into the output as TopK's absorb and finish do.
  auto payloads = std::make_shared<std::vector<ByteBuffer>>(grads.size());
  for (std::size_t w = 0; w < grads.size(); ++w) {
    encode_sparse_fp16_gather(grads[w], top_k_indices(grads[w], k),
                              (*payloads)[w]);
  }
  auto views = std::make_shared<std::vector<SparseFp16View>>();
  cases.push_back({"topk/scatter", [=] {
                     views->clear();
                     for (const auto& p : *payloads) {
                       views->push_back(view_sparse_fp16(p, d));
                     }
                     sum_sparse_fp16(*views, *out);
                   }});
  return cases;
}

struct FoldCase {
  std::string label;
  std::unique_ptr<comm::ReduceOp> op;
  ByteBuffer acc, in;
};

/// The two sum folds over payloads two workers' gradients produce: fp16
/// halves, and 4-bit Sat lanes holding centered levels (each coordinate
/// in [-1, 1] scaled by 8 and rounded, which spans the lane domain the way
/// THC's centered q = 4 levels do).
std::vector<FoldCase> make_folds(std::span<const std::span<const float>> g) {
  std::vector<FoldCase> out;
  const std::size_t d = g[0].size();
  FoldCase fp16{"fold/fp16_sum", comm::make_fp16_sum(), {}, {}};
  fp16.acc.resize(2 * d);
  fp16.in.resize(2 * d);
  kernels::scalar().fp32_to_fp16(
      g[0].data(), d, reinterpret_cast<std::uint16_t*>(fp16.acc.data()));
  kernels::scalar().fp32_to_fp16(
      g[1].data(), d, reinterpret_cast<std::uint16_t*>(fp16.in.data()));
  out.push_back(std::move(fp16));
  const auto lanes = [&](std::span<const float> x) {
    // Offset-binary 4-bit lanes (value + 2^3) of the rounded, clamped x.
    std::vector<std::uint16_t> raw(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      raw[i] = static_cast<std::uint16_t>(
          std::clamp(static_cast<std::int32_t>(std::lround(x[i] * 8.0f)),
                     sat_min(4), sat_max(4)) -
          sat_min(4));
    }
    return pack_lanes(raw, 4);
  };
  out.push_back({"fold/sat_int4", comm::make_sat_int(4, nullptr),
                 lanes(g[0]), lanes(g[1])});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  print_header("codec throughput",
               "Encode-side and decode-side MB/s per scheme and fold MB/s "
               "per sum op per payload size (gradient bytes in; active "
               "kernel backend vs forced scalar)");
  const double min_seconds = flags.get_double("min-seconds", 0.4);
  const int max_iters = static_cast<int>(flags.get_double("max-iters", 12));
  flags.reject_unknown();

  const struct {
    const char* label;
    std::size_t d;
  } payloads[] = {
      {"64KB", 16384}, {"1MB", 262144}, {"25MB", 6553600}};

  std::cout << "kernel backend: " << kernels::backend_name() << "\n\n";
  AsciiTable table(
      {"scheme", "payload", "MB/s", "MB/s scalar", "speedup", "wire bytes"});
  for (const auto& payload : payloads) {
    const std::size_t d = payload.d;
    // Deterministic pseudo-gradients, shared across schemes and backends.
    std::vector<std::vector<float>> grads(
        kWorld, std::vector<float>(d));
    Rng rng(0xC0DEC << 4 | 1);
    for (auto& g : grads) {
      for (float& v : g) v = rng.next_float() * 2.0f - 1.0f;
    }
    std::vector<std::span<const float>> views(grads.begin(), grads.end());
    const std::span<const std::span<const float>> view_span(views);

    for (auto& scheme : make_schemes(d)) {
      // PowerSGD's layout rounds the dimension to the layout total.
      const std::size_t dim = scheme.codec->dimension();
      std::vector<std::vector<float>> local_grads;
      std::span<const std::span<const float>> local_views = view_span;
      std::vector<std::span<const float>> patched;
      if (dim != d) {
        local_grads.assign(kWorld, std::vector<float>(dim));
        for (int w = 0; w < kWorld; ++w) {
          auto& g = local_grads[static_cast<std::size_t>(w)];
          for (std::size_t i = 0; i < dim; ++i) {
            g[i] = grads[static_cast<std::size_t>(w)][i % d];
          }
          patched.emplace_back(g.data(), g.size());
        }
        local_views = std::span<const std::span<const float>>(patched);
      }
      const int n_stages = count_stages(*scheme.codec, local_views);
      const std::size_t wire_bytes =
          encode_side_pass(*scheme.codec, local_views, 1, n_stages);
      std::uint64_t round = 2;
      kernels::force_backend_for_testing("scalar");
      const double scalar_mbps =
          measure_mbps(*scheme.codec, local_views, dim, n_stages,
                       min_seconds, max_iters, round);
      kernels::force_backend_for_testing(nullptr);
      const double mbps =
          measure_mbps(*scheme.codec, local_views, dim, n_stages,
                       min_seconds, max_iters, round);
      const double speedup = scalar_mbps > 0.0 ? mbps / scalar_mbps : 0.0;
      const std::string row = scheme.label + "/" + payload.label;
      table.add_row({scheme.label, payload.label, format_sig(mbps, 4),
                     format_sig(scalar_mbps, 4), format_sig(speedup, 3),
                     std::to_string(wire_bytes)});
      auto& json = bench_json();
      json.set(row, "payload", std::string(payload.label));
      json.set(row, "encode_MBps", mbps);
      json.set(row, "encode_MBps_scalar", scalar_mbps);
      json.set(row, "backend_speedup", speedup);
      json.set(row, "wire_bytes", static_cast<double>(wire_bytes));
      std::cout << "  " << row << ": " << format_sig(mbps, 4) << " MB/s ("
                << format_sig(scalar_mbps, 4) << " scalar, "
                << format_sig(speedup, 3) << "x)\n";

      kernels::force_backend_for_testing("scalar");
      const double dec_scalar_mbps =
          measure_decode_mbps(*scheme.codec, local_views, dim, n_stages,
                              min_seconds, max_iters, round);
      kernels::force_backend_for_testing(nullptr);
      const double dec_mbps =
          measure_decode_mbps(*scheme.codec, local_views, dim, n_stages,
                              min_seconds, max_iters, round);
      const double dec_speedup =
          dec_scalar_mbps > 0.0 ? dec_mbps / dec_scalar_mbps : 0.0;
      const std::string dec_row = "decode/" + row;
      table.add_row({"decode/" + scheme.label, payload.label,
                     format_sig(dec_mbps, 4), format_sig(dec_scalar_mbps, 4),
                     format_sig(dec_speedup, 3), "-"});
      json.set(dec_row, "payload", std::string(payload.label));
      json.set(dec_row, "decode_MBps", dec_mbps);
      json.set(dec_row, "decode_MBps_scalar", dec_scalar_mbps);
      json.set(dec_row, "backend_speedup", dec_speedup);
      std::cout << "  " << dec_row << ": " << format_sig(dec_mbps, 4)
                << " MB/s (" << format_sig(dec_scalar_mbps, 4) << " scalar, "
                << format_sig(dec_speedup, 3) << "x)\n";
    }

    for (auto& fold : make_folds(view_span)) {
      kernels::force_backend_for_testing("scalar");
      const double scalar_mbps =
          measure_fold_mbps(*fold.op, fold.acc, fold.in, d, min_seconds);
      kernels::force_backend_for_testing(nullptr);
      const double mbps =
          measure_fold_mbps(*fold.op, fold.acc, fold.in, d, min_seconds);
      const double speedup = scalar_mbps > 0.0 ? mbps / scalar_mbps : 0.0;
      const std::string row = fold.label + "/" + payload.label;
      table.add_row({fold.label, payload.label, format_sig(mbps, 4),
                     format_sig(scalar_mbps, 4), format_sig(speedup, 3),
                     std::to_string(fold.in.size())});
      auto& json = bench_json();
      json.set(row, "payload", std::string(payload.label));
      json.set(row, "fold_MBps", mbps);
      json.set(row, "fold_MBps_scalar", scalar_mbps);
      json.set(row, "backend_speedup", speedup);
      json.set(row, "wire_bytes", static_cast<double>(fold.in.size()));
      std::cout << "  " << row << ": " << format_sig(mbps, 4) << " MB/s ("
                << format_sig(scalar_mbps, 4) << " scalar, "
                << format_sig(speedup, 3) << "x)\n";
    }

    for (auto& kernel : make_kernel_cases(view_span)) {
      kernels::force_backend_for_testing("scalar");
      const double scalar_mbps =
          measure_kernel_mbps(d, min_seconds, kernel.pass);
      kernels::force_backend_for_testing(nullptr);
      const double mbps = measure_kernel_mbps(d, min_seconds, kernel.pass);
      const double speedup = scalar_mbps > 0.0 ? mbps / scalar_mbps : 0.0;
      const std::string row = kernel.label + "/" + payload.label;
      table.add_row({kernel.label, payload.label, format_sig(mbps, 4),
                     format_sig(scalar_mbps, 4), format_sig(speedup, 3),
                     "-"});
      auto& json = bench_json();
      json.set(row, "payload", std::string(payload.label));
      json.set(row, "kernel_MBps", mbps);
      json.set(row, "kernel_MBps_scalar", scalar_mbps);
      json.set(row, "backend_speedup", speedup);
      std::cout << "  " << row << ": " << format_sig(mbps, 4) << " MB/s ("
                << format_sig(scalar_mbps, 4) << " scalar, "
                << format_sig(speedup, 3) << "x)\n";
    }
  }
  std::cout << '\n' << table.to_string() << '\n';
  bench_json().write();
  return 0;
}
