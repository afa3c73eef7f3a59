#include "sim/cost_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "core/factory.h"
#include "hadamard/hadamard.h"
#include "lowrank/orthogonalize.h"
#include "lowrank/powersgd_step.h"
#include "sched/backward_source.h"
#include "sched/bucket_planner.h"

namespace gcs::sim {
namespace {

double clamp_nonneg(double x, double hi) {
  return std::min(std::max(x, 0.0), hi);
}

}  // namespace

double CostModel::train_compute(const WorkloadSpec& w,
                                Precision train_precision) const {
  const double base = w.fp32_compute_seconds;
  return train_precision == Precision::kTf32
             ? base * constants_.tf32_speedup_factor
             : base;
}

RoundTime CostModel::apply_overlap(const RoundCharge& charge,
                                   std::size_t chunk_bytes) const {
  RoundTime t = charge.serial;
  if (chunk_bytes == 0 || charge.payload_bytes <= 0.0) return t;
  const auto m = static_cast<std::size_t>(
      std::ceil(charge.payload_bytes / static_cast<double>(chunk_bytes)));
  t.chunks = std::max<std::size_t>(m, 1);
  if (t.chunks <= 1) return t;
  // Only the main stage's collective and the per-chunk encode/decode
  // compute pipeline; consensus rounds and whole-vector pre-barrier work
  // (selection, rotation) stay serial.
  const double comm_pipelined_s =
      clamp_nonneg(charge.comm_pipelined_s, t.comm_s);
  const double compress_pipelined_s =
      clamp_nonneg(charge.compress_pipelined_s, t.compress_s);
  // Every chunk beyond the first pays the collective's per-step latency
  // again; the bytes term is unchanged (same total volume).
  const double extra_latency =
      static_cast<double>(t.chunks - 1) * charge.step_latency_s;
  t.comm_s += extra_latency;
  // Two-stage pipeline over m chunks (encode e, hops c per chunk): the
  // serial schedule costs e*m + c*m, the pipelined one e + (m-1)max(e,c)
  // + c, so the hidden time is (m-1)*min(e, c).
  const double mm = static_cast<double>(t.chunks);
  const double e = compress_pipelined_s / mm;
  const double c = (comm_pipelined_s + extra_latency) / mm;
  t.overlap_saved_s = (mm - 1.0) * std::min(e, c);
  return t;
}

RoundTime CostModel::apply_backward_overlap(const RoundCharge& charge,
                                            const WorkloadSpec& w,
                                            std::size_t bucket_bytes,
                                            int workers,
                                            double backward_frac) const {
  GCS_CHECK_MSG(workers >= 1, "backward overlap needs >= 1 encode workers");
  GCS_CHECK_MSG(backward_frac > 0.0 && backward_frac < 1.0,
                "backward_frac must be strictly inside (0, 1), got "
                    << backward_frac);
  RoundTime t = charge.serial;
  sched::BucketPlannerConfig planner;
  if (bucket_bytes != 0) planner.bucket_bytes = bucket_bytes;
  const sched::BucketPlan plan = sched::plan_buckets(w.layout, planner);
  const std::size_t m = plan.num_buckets();
  t.chunks = m;

  const double comm_pipelined_s =
      clamp_nonneg(charge.comm_pipelined_s, t.comm_s);
  const double compress_pipelined_s =
      clamp_nonneg(charge.compress_pipelined_s, t.compress_s);
  double barrier_compress = t.compress_s - compress_pipelined_s;
  const double barrier_comm = t.comm_s - comm_pipelined_s;
  // Once-per-coordinate passes stream with the backward pass; whatever
  // does not fit under it spills back into the barrier.
  const double streamable =
      clamp_nonneg(charge.backward_streamable_s, barrier_compress);
  barrier_compress -= streamable;

  // Every bucket beyond the first pays the collective latency again (the
  // serial reference below includes this, exactly like apply_overlap).
  const double extra_latency =
      static_cast<double>(m - 1) * charge.step_latency_s;
  t.comm_s += extra_latency;
  const double serial_total =
      t.compute_s + t.compress_s + t.comm_s + t.fixed_s;

  const double forward = (1.0 - backward_frac) * t.compute_s;
  const double backward = t.compute_s - forward;
  const sched::BackwardSource source(w.layout, backward);
  const double backward_end = forward + backward;
  const double stream_spill = std::max(0.0, streamable - backward);
  // Whole-vector encode work (selection, full rotation) needs the full
  // gradient: it gates every bucket's encode. Zero barrier = no gate.
  const double encode_gate =
      barrier_compress + stream_spill > 0.0
          ? backward_end + stream_spill + barrier_compress
          : 0.0;
  // Consensus rings (whole-payload metadata) occupy the wire before the
  // first bucket; they are charged alongside the compute barrier (the
  // model lets them overlap it — both need only the full gradient).
  double wire_free = 0.0;
  if (barrier_comm > 0.0) {
    wire_free = std::max(encode_gate, backward_end) + barrier_comm;
  }

  // Event replay over buckets in gradient-ready order: encode on the
  // earliest-free pool thread (lowest index on ties — the pool's
  // deterministic claim order), then the serial wire.
  std::vector<double> worker_free(static_cast<std::size_t>(workers), 0.0);
  double compute_end = std::max(backward_end + stream_spill, encode_gate);
  for (std::size_t k = 0; k < m; ++k) {
    const double frac = plan.fraction(k);
    const double ready = forward + source.bucket_ready_s(plan.bucket(k));
    auto slot = std::min_element(worker_free.begin(), worker_free.end());
    const double start = std::max({ready, encode_gate, *slot});
    const double end = start + compress_pipelined_s * frac;
    *slot = end;
    compute_end = std::max(compute_end, end);
    const double hops = comm_pipelined_s * frac +
                        (k > 0 ? charge.step_latency_s : 0.0);
    wire_free = std::max(end, wire_free) + hops;
  }
  const double makespan = std::max(wire_free, compute_end);
  t.overlap_saved_s =
      std::max(0.0, serial_total - (makespan + t.fixed_s));
  return t;
}

CostModel::RoundCharge CostModel::baseline_charge(
    const WorkloadSpec& w, Precision train_precision,
    Precision comm_precision) const {
  RoundCharge charge;
  charge.serial.compute_s = train_compute(w, train_precision);
  charge.serial.fixed_s = constants_.fixed_overhead_s;
  const double bytes =
      static_cast<double>(w.dimension()) * wire_bits(comm_precision) / 8.0;
  charge.serial.comm_s = net_.ring_all_reduce_time(n_, bytes);
  charge.payload_bytes = bytes;
  charge.step_latency_s = net_.ring_step_latency(n_);
  charge.comm_pipelined_s = charge.serial.comm_s;
  return charge;
}

RoundTime CostModel::baseline_round(const WorkloadSpec& w,
                                    Precision train_precision,
                                    Precision comm_precision,
                                    std::size_t chunk_bytes) const {
  return apply_overlap(baseline_charge(w, train_precision, comm_precision),
                       chunk_bytes);
}

CostModel::RoundCharge CostModel::topk_charge(const WorkloadSpec& w,
                                              double k,
                                              double payload) const {
  const auto d = static_cast<double>(w.dimension());
  RoundCharge charge;
  charge.serial.compute_s = train_compute(w, Precision::kFp32);
  charge.serial.fixed_s = constants_.fixed_overhead_s;
  // Selection + rearrangement on the full vector; decode scatters n*K
  // received coordinates with poor locality.
  charge.serial.compress_s = constants_.topk_select_per_coord_s * d +
                             constants_.scatter_add_per_coord_s * k * n_;
  charge.serial.comm_s = net_.all_gather_time(n_, payload);
  charge.payload_bytes = payload;
  charge.step_latency_s = net_.all_gather_step_latency(n_);
  charge.comm_pipelined_s = charge.serial.comm_s;
  // The selection runs on the whole vector before the first chunk can
  // leave — the global top-K barrier is exactly what blocks backward
  // overlap; only the receive-side scatter-add streams with the gather.
  charge.compress_pipelined_s = constants_.scatter_add_per_coord_s * k * n_;
  return charge;
}

RoundTime CostModel::topk_round(const WorkloadSpec& w, double bits,
                                std::size_t chunk_bytes) const {
  // FP16 value + 32-bit index per entry.
  const auto d = static_cast<double>(w.dimension());
  return apply_overlap(
      topk_charge(w, d * bits / core::TopKConfig::entry_bits(false),
                  d * bits / 8.0),
      chunk_bytes);
}

CostModel::RoundCharge CostModel::topkc_charge(const WorkloadSpec& w,
                                               std::size_t top_chunks,
                                               std::size_t chunk_size) const {
  const auto d = static_cast<double>(w.dimension());
  const auto c = static_cast<double>(chunk_size);
  const double payload_coords = static_cast<double>(top_chunks) * c;
  const double norm_coords = std::ceil(d / c);
  RoundCharge charge;
  charge.serial.compute_s = train_compute(w, Precision::kFp32);
  charge.serial.fixed_s = constants_.fixed_overhead_s;
  // Sequential norm pass + a top-J selection over only d/C candidates +
  // sequential chunk gather/scatter.
  charge.serial.compress_s =
      constants_.chunk_norm_per_coord_s * d +
      constants_.topk_select_per_coord_s * norm_coords +
      constants_.chunk_norm_per_coord_s * payload_coords;
  charge.serial.comm_s =
      net_.ring_all_reduce_time(n_, norm_coords * 2.0) +
      net_.ring_all_reduce_time(n_, payload_coords * 2.0);
  // Overlap applies to the main chunk-values stage only; the norm pass,
  // the consensus ring and the selection are a dependency barrier.
  charge.payload_bytes = payload_coords * 2.0;
  charge.step_latency_s = net_.ring_step_latency(n_);
  charge.comm_pipelined_s =
      net_.ring_all_reduce_time(n_, payload_coords * 2.0);
  charge.compress_pipelined_s =
      constants_.chunk_norm_per_coord_s * payload_coords;
  // The norm pass reads each coordinate exactly once: it streams with the
  // backward pass, layer by layer, under the bucketed schedule.
  charge.backward_streamable_s = constants_.chunk_norm_per_coord_s * d;
  return charge;
}

RoundTime CostModel::topkc_round(const WorkloadSpec& w, double bits,
                                 std::size_t chunk_size,
                                 std::size_t chunk_bytes) const {
  return apply_overlap(
      topkc_charge(w,
                   core::TopKCConfig::j_for_bits(w.dimension(), chunk_size,
                                                 bits),
                   chunk_size),
      chunk_bytes);
}

unsigned CostModel::rotation_iters(const WorkloadSpec& w,
                                   core::RotationMode mode) const {
  const std::size_t padded = next_pow2(w.dimension());
  switch (mode) {
    case core::RotationMode::kNone: return 0;
    case core::RotationMode::kPartial:
      return partial_iterations(padded, constants_.shared_memory_bytes);
    case core::RotationMode::kFull: break;
  }
  return full_iterations(padded);
}

CostModel::RoundCharge CostModel::thc_charge(const WorkloadSpec& w,
                                             unsigned bits,
                                             unsigned rot_iters) const {
  // Padding matches the compressor: full rotation needs the next power of
  // two; partial rotation only a whole number of 2^l' blocks; no rotation
  // only byte alignment.
  const std::size_t pow2 = next_pow2(w.dimension());
  const unsigned full = full_iterations(pow2);
  double d_padded;
  if (rot_iters == 0) {
    d_padded = static_cast<double>(ceil_div(w.dimension(), 8) * 8);
  } else if (rot_iters >= full) {
    d_padded = static_cast<double>(pow2);
  } else {
    const std::size_t block = std::size_t{1} << rot_iters;
    d_padded = static_cast<double>(ceil_div(w.dimension(), block) * block);
  }
  RoundCharge charge;
  charge.serial.compute_s = train_compute(w, Precision::kFp32);
  charge.serial.fixed_s = constants_.fixed_overhead_s;
  const double rotation_s =
      constants_.rht_per_coord_iter_s * d_padded * rot_iters;
  charge.serial.compress_s =
      rotation_s + constants_.quantize_per_coord_s * d_padded;
  // Range metadata: 8 bytes per rotation block (or one global block).
  const double blocks =
      rot_iters == 0
          ? 1.0
          : d_padded / static_cast<double>(
                           std::size_t{1} << std::min<unsigned>(rot_iters, 62));
  charge.serial.comm_s =
      net_.ring_all_reduce_time(n_, d_padded * bits / 8.0) +
      net_.ring_all_reduce_time(n_, std::max(blocks, 1.0) * 8.0);
  // Quantize+pack is per-coordinate and the range consensus fixes the
  // scales up front, so the levels stage pipelines chunk by chunk; the
  // rotation and the range rings stay serial.
  charge.payload_bytes = d_padded * bits / 8.0;
  charge.step_latency_s = net_.ring_step_latency(n_);
  charge.comm_pipelined_s =
      net_.ring_all_reduce_time(n_, d_padded * bits / 8.0);
  charge.compress_pipelined_s = constants_.quantize_per_coord_s * d_padded;
  // Partial rotation mixes only within 2^l' blocks: each block rotates as
  // soon as its coordinates exist, streaming with the backward pass. The
  // full rotation's butterflies span the whole vector — a true barrier.
  if (rot_iters > 0 && rot_iters < full) {
    charge.backward_streamable_s = rotation_s;
  }
  return charge;
}

RoundTime CostModel::thc_round(const WorkloadSpec& w, unsigned bits,
                               unsigned rot_iters,
                               std::size_t chunk_bytes) const {
  return apply_overlap(thc_charge(w, bits, rot_iters), chunk_bytes);
}

double CostModel::powersgd_bits(const WorkloadSpec& w,
                                std::size_t rank) const {
  double payload_bytes = 0.0;
  for (const auto& layer : w.layout.layers()) {
    const bool low_rank = std::min(layer.rows, layer.cols) > rank;
    if (low_rank) {
      const std::size_t r = effective_rank(layer.rows, layer.cols, rank);
      payload_bytes += 2.0 * static_cast<double>(r) *
                       static_cast<double>(layer.rows + layer.cols);
    } else {
      payload_bytes += 2.0 * static_cast<double>(layer.size());
    }
  }
  return payload_bytes * 8.0 / static_cast<double>(w.dimension());
}

CostModel::RoundCharge CostModel::powersgd_charge(const WorkloadSpec& w,
                                                  std::size_t rank) const {
  RoundCharge charge;
  charge.serial.compute_s = train_compute(w, Precision::kFp32);
  charge.serial.fixed_s = constants_.fixed_overhead_s;

  double matmul_flops = 0.0;
  double ortho_flops = 0.0;
  double qr_steps = 0.0;
  double launches = 0.0;
  double payload_bytes = 0.0;
  for (const auto& layer : w.layout.layers()) {
    const bool low_rank = std::min(layer.rows, layer.cols) > rank;
    if (!low_rank) {
      payload_bytes += 2.0 * static_cast<double>(layer.size());
      continue;
    }
    const std::size_t r = effective_rank(layer.rows, layer.cols, rank);
    // P = M Q, Q = M^T P, M_hat = P Q^T: 2*m*c*r MACs each.
    matmul_flops += 3.0 * 2.0 * static_cast<double>(layer.size()) *
                    static_cast<double>(r);
    ortho_flops +=
        static_cast<double>(orthogonalize_flops(layer.rows, r));
    qr_steps += static_cast<double>(r);  // sequential column steps
    launches += 2.0;  // one kernel sequence per phase per matrix
    payload_bytes += 2.0 * static_cast<double>(r) *
                     static_cast<double>(layer.rows + layer.cols);
  }
  const double matmul_s = matmul_flops / constants_.matmul_flops_per_sec;
  charge.serial.compress_s = matmul_s +
                             ortho_flops / constants_.ortho_flops_per_sec +
                             qr_steps * constants_.qr_step_launch_s +
                             launches * constants_.layer_launch_s;
  charge.serial.comm_s = net_.ring_all_reduce_time(n_, payload_bytes);
  // The Q and reconstruction matmuls run layer by layer, so their encode
  // streams into the ring; orthogonalization and the per-layer launches
  // are barriers. The P = M Q matmul of a layer needs only that layer's
  // gradient, so the P phase (one of the three matmuls) instead streams
  // with the backward pass under the bucketed schedule.
  charge.payload_bytes = payload_bytes;
  charge.step_latency_s = net_.ring_step_latency(n_);
  charge.comm_pipelined_s = charge.serial.comm_s;
  charge.compress_pipelined_s = matmul_s * 2.0 / 3.0;
  charge.backward_streamable_s = matmul_s / 3.0;
  return charge;
}

RoundTime CostModel::powersgd_round(const WorkloadSpec& w,
                                    std::size_t rank,
                                    std::size_t chunk_bytes) const {
  return apply_overlap(powersgd_charge(w, rank), chunk_bytes);
}

CostModel::RoundCharge CostModel::scheme_charge(
    const WorkloadSpec& w, const core::SchemeSpec& scheme) const {
  const auto& config = scheme.config;
  if (const auto* c = std::get_if<core::BaselineConfig>(&config)) {
    return baseline_charge(
        w, scheme.tf32 ? Precision::kTf32 : Precision::kFp32,
        c->comm_precision);
  }
  if (const auto* c = std::get_if<core::TopKConfig>(&config)) {
    const auto d = static_cast<double>(w.dimension());
    const auto k = static_cast<double>(c->k);
    const double entry_bits = core::TopKConfig::entry_bits(c->delta_indices);
    if (c->delta_indices) return topk_charge(w, k, k * entry_bits / 8.0);
    // b= prices its budget (a fractional K); k= prices the codec's K.
    const double bits =
        scheme.topk_bits > 0.0 ? scheme.topk_bits : k * entry_bits / d;
    return topk_charge(w, d * bits / entry_bits, d * bits / 8.0);
  }
  if (const auto* c = std::get_if<core::TopKCConfig>(&config)) {
    return topkc_charge(w, c->num_top_chunks, c->chunk_size);
  }
  if (const auto* c = std::get_if<core::ThcConfig>(&config)) {
    return thc_charge(w, c->b, rotation_iters(w, c->rotation));
  }
  return powersgd_charge(w, std::get<core::PowerSgdConfig>(config).rank);
}

RoundTime CostModel::round_for_spec(const WorkloadSpec& w,
                                    const std::string& spec,
                                    std::size_t chunk_bytes) const {
  const core::SchemeSpec scheme = core::parse_scheme(spec, w.layout, n_);
  const core::PipelineConfig pipeline =
      core::parse_pipeline_config(spec, w.layout, n_);
  if (pipeline.bucket_mode == sched::BucketMode::kLayerBuckets) {
    return bucketed_round(w, scheme, pipeline.bucket_bytes,
                          pipeline.encode_workers, scheme.backward_frac);
  }
  return chunked_round(w, scheme,
                       chunk_bytes != 0 ? chunk_bytes : pipeline.chunk_bytes);
}

RoundTime CostModel::bucketed_round_for_spec(const WorkloadSpec& w,
                                             const std::string& spec,
                                             std::size_t bucket_bytes,
                                             int workers,
                                             double backward_frac) const {
  return bucketed_round(w, core::parse_scheme(spec, w.layout, n_),
                        bucket_bytes, workers, backward_frac);
}

RoundTime CostModel::chunked_round(const WorkloadSpec& w,
                                   const core::SchemeSpec& scheme,
                                   std::size_t chunk_bytes) const {
  return apply_overlap(scheme_charge(w, scheme), chunk_bytes);
}

RoundTime CostModel::bucketed_round(const WorkloadSpec& w,
                                    const core::SchemeSpec& scheme,
                                    std::size_t bucket_bytes, int workers,
                                    double backward_frac) const {
  return apply_backward_overlap(scheme_charge(w, scheme), w, bucket_bytes,
                                workers, backward_frac);
}

double CostModel::rerendezvous_stall_s(const WorkloadSpec& w,
                                       const std::string& spec,
                                       int new_world) const {
  GCS_CHECK_MSG(new_world >= 1 && new_world <= n_,
                "recovery can only shrink the world (got " << new_world
                                                           << " of " << n_
                                                           << ")");
  // The aborted attempt: the commit barrier guarantees nothing of the
  // interrupted round survives, so its whole charge is paid again.
  const double lost_round_s = round_for_spec(w, spec).total();
  // Mesh re-formation: m(m-1)/2 connections, one handshake round trip
  // each, charged serialized — the coordinator accepts hellos one at a
  // time and the per-pair links follow in rank order.
  const double links =
      static_cast<double>(new_world) *
      static_cast<double>(new_world - 1) / 2.0;
  const double mesh_s = links * 2.0 * net_.link().latency_sec;
  return lost_round_s + constants_.rejoin_window_s + mesh_s;
}

}  // namespace gcs::sim
