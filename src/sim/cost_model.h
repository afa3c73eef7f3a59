// Calibrated compute + communication cost model for the paper's testbed.
//
// Reproduces round times for 2 nodes x 2 A100s with 100 Gbps ConnectX-6
// NICs. Two classes of constants:
//
//  * network efficiencies (netsim defaults) — line-rate fractions each
//    collective achieves under NCCL/PyTorch DDP. The paper's own tables
//    are only mutually consistent with ring ≈ 0.6 and all-gather ≈ 0.45
//    of line rate (see EXPERIMENTS.md, "calibration").
//
//  * per-component compute constants, fit to the paper's overhead
//    *fractions* (not to individual cells):
//      - kFixedOverhead     : optimizer step + kernel-launch floor.
//      - kTf32SpeedupFactor : TF32 vs FP32 fwd/bwd ratio (Table 2).
//      - kTopKSelectPerCoord: TopK selection+rearrangement ~ 10% of round
//                             time across b (Table 6).
//      - kScatterAddPerCoord: per received sparse coordinate on the
//                             all-gather decode path.
//      - kChunkNormPerCoord : sequential chunk-norm pass ("negligible").
//      - kRhtPerCoordIter   : one butterfly level per coordinate; fits the
//                             full-vs-partial deltas in Table 8.
//      - kQuantizePerCoord  : quantize+pack+decode effective cost.
//      - kMatmulFlopsPerSec : tensor-core rate for PowerSGD's P/Q matmuls.
//      - kOrthoFlopsPerSec  : effective Gram–Schmidt rate (tiny: small
//                             unbatched kernels; drives Table 9's r=64
//                             collapse, 39.7%/47.4% profiles).
//      - kLayerLaunchSec    : per-layer per-phase launch overhead
//                             (PowerSGD touches every matrix twice/round).
//
// All times are per round, per worker. The monolithic model (chunk_bytes
// == 0) assumes compute/comm do not overlap (PyTorch DDP overlaps only
// partially; the non-overlapped model reproduces the paper's ordering —
// see EXPERIMENTS.md for residuals). With chunk_bytes > 0 the model
// charges the chunked pipeline the AggregationPipeline executes: the
// stage payload is split into m chunks, compression of chunk k+1 overlaps
// the collective hops of chunk k (a two-stage pipeline over m items), and
// every extra chunk pays the collective's per-step latency again — the
// same overlap that Agarwal et al. show erases most of compression's
// apparent wins for the *baseline*, here available to every scheme.
// RoundTime::overlap_saved_s records the hidden time; total() subtracts
// it.
//
// bucketed_round_for_spec (or "buckets=layer" in a spec) charges the
// stronger schedule the sched/ subsystem executes: layer-aligned DDP
// buckets in backward order, so bucket k's encode and collective start at
// the bucket's gradient-ready time (sched/BackwardSource) instead of at
// backward end, with an encode worker pool of `workers` threads.
// Whole-vector encode work (TopK selection, full rotation) still gates
// every bucket — the regime where compression's encode cost stops being
// free, which is the paper's core warning.
#pragma once

#include <cstdint>
#include <string>

#include "netsim/network_model.h"
#include "numeric/precision.h"
#include "sched/backward_source.h"
#include "sim/workload.h"

namespace gcs::core {
struct SchemeSpec;
enum class RotationMode : std::uint8_t;
}  // namespace gcs::core

namespace gcs::sim {

struct CostConstants {
  double fixed_overhead_s = 0.010;
  double tf32_speedup_factor = 0.93;
  double topk_select_per_coord_s = 4.0e-11;
  double scatter_add_per_coord_s = 1.0e-10;
  double chunk_norm_per_coord_s = 5.0e-12;
  double rht_per_coord_iter_s = 7.0e-13;
  double quantize_per_coord_s = 2.0e-11;
  double matmul_flops_per_sec = 1.0e13;
  double ortho_flops_per_sec = 2.5e10;
  double layer_launch_s = 1.0e-4;
  /// Gram–Schmidt executes r sequential column steps per matrix; each step
  /// is a separate small kernel sequence on a GPU.
  double qr_step_launch_s = 1.2e-5;
  /// GPU shared-memory budget bounding partial rotation (2^l' floats).
  std::size_t shared_memory_bytes = 32 * 1024;
  /// Elastic recovery: how long survivors keep the re-rendezvous doors
  /// open before a shrunken epoch forms (mirrors
  /// net::SocketFabricConfig::rejoin_window_ms).
  double rejoin_window_s = 2.0;
};

/// Per-round time breakdown (seconds).
struct RoundTime {
  double compute_s = 0.0;   ///< forward + backward
  double compress_s = 0.0;  ///< compression/decompression compute
  double comm_s = 0.0;      ///< collective transfer time (incl. per-chunk
                            ///< latency when chunked)
  double fixed_s = 0.0;     ///< launches, optimizer, bookkeeping
  /// Time hidden by pipelining: compression compute under communication
  /// (chunked charge; never exceeds compress_s there) or, for the
  /// bucketed backward-overlap charge, additionally communication and
  /// streamable encode hidden under the backward pass itself.
  double overlap_saved_s = 0.0;
  /// Number of chunks (size-chunked charge) or layer-aligned buckets
  /// (backward-overlap charge) the main payload was split into
  /// (1 = monolithic).
  std::size_t chunks = 1;

  double total() const noexcept {
    return compute_s + compress_s + comm_s + fixed_s - overlap_saved_s;
  }
  double rounds_per_second() const noexcept { return 1.0 / total(); }
  /// Fraction of the round spent in compression compute — the quantity
  /// Table 6 reports.
  double compress_fraction() const noexcept {
    return compress_s / total();
  }
};

/// Round-time estimator for one testbed (network + constants + n).
class CostModel {
 public:
  CostModel(CostConstants constants, netsim::NetworkModel network,
            int world_size) noexcept
      : constants_(constants), net_(network), n_(world_size) {}
  /// Paper testbed defaults (4 workers, 100 Gbps).
  CostModel() noexcept : CostModel(CostConstants{}, netsim::NetworkModel{}, 4) {}

  int world_size() const noexcept { return n_; }
  const CostConstants& constants() const noexcept { return constants_; }
  const netsim::NetworkModel& network() const noexcept { return net_; }

  /// Uncompressed baseline: {FP32, TF32} training x {FP32, FP16} comm.
  /// `chunk_bytes` > 0 charges the chunked/overlapped pipeline (all
  /// methods below; 0 = monolithic).
  RoundTime baseline_round(const WorkloadSpec& w, Precision train_precision,
                           Precision comm_precision,
                           std::size_t chunk_bytes = 0) const;

  /// TopK at b bits/coordinate over all-gather.
  RoundTime topk_round(const WorkloadSpec& w, double bits,
                       std::size_t chunk_bytes = 0) const;

  /// TopKC at b bits/coordinate with chunk size C over all-reduce.
  RoundTime topkc_round(const WorkloadSpec& w, double bits,
                        std::size_t chunk_size,
                        std::size_t chunk_bytes = 0) const;

  /// THC: wire bits b, rotation iterations per the mode.
  RoundTime thc_round(const WorkloadSpec& w, unsigned wire_bits,
                      unsigned rotation_iters,
                      std::size_t chunk_bytes = 0) const;

  /// Rotation iteration count for a mode at this workload's padded
  /// dimension.
  unsigned rotation_iters(const WorkloadSpec& w,
                          core::RotationMode mode) const;

  /// PowerSGD at rank r (layout-dependent: matmuls, orthogonalization,
  /// per-layer launches, P/Q payload sizes).
  RoundTime powersgd_round(const WorkloadSpec& w, std::size_t rank,
                           std::size_t chunk_bytes = 0) const;

  /// PowerSGD bits/coordinate implied by the workload layout at rank r
  /// (FP16 P and Q for low-rank layers, dense FP16 for the rest).
  double powersgd_bits(const WorkloadSpec& w, std::size_t rank) const;

  /// Charges the experiment core::make_pipeline builds from `spec`. The
  /// factory's parser reads the spec (core::parse_scheme and
  /// core::parse_pipeline_config on w.layout at this world size), so a
  /// spec the factory rejects throws the same gcs::Error here. The charge
  /// follows the resolved pipeline: "buckets=layer" selects the bucketed
  /// backward-overlap charge at the spec's bucket=, workers= and
  /// backward_frac=; otherwise the round is size-chunked at chunk=, or at
  /// `chunk_bytes` when that is non-zero. An autotune spec is charged at
  /// the sizes the factory resolves for it.
  RoundTime round_for_spec(const WorkloadSpec& w, const std::string& spec,
                           std::size_t chunk_bytes = 0) const;

  /// Charges one elastic membership recovery (DESIGN.md "Fault
  /// tolerance"): a peer dies mid-round, so the interrupted attempt's
  /// work is lost (one full round under this spec), survivors wait out
  /// the rejoin window, and the shrunken `new_world`-rank mesh re-forms —
  /// one handshake round trip per connection, serialized at the
  /// coordinator's accept loop in the worst case. TTA curves shift right
  /// by this stall at the failure round (sim/tta.h
  /// with_recovery_stall), which is how a recovery shows up as end-to-end
  /// utility lost rather than as a free event.
  double rerendezvous_stall_s(const WorkloadSpec& w, const std::string& spec,
                              int new_world) const;

  /// Charges the layer-bucketed, backward-overlapped schedule for a spec:
  /// DDP-style buckets of `bucket_bytes` (0 = the planner's 25 MB
  /// default) in backward order, an encode pool of `workers` threads,
  /// comm of bucket k overlapping both the backward pass and the encode
  /// of bucket k+1. `backward_frac` is the backward share of fwd+bwd
  /// compute (strictly inside (0, 1)). The spec is validated, but its
  /// own schedule knobs are not read: the arguments are the schedule.
  RoundTime bucketed_round_for_spec(
      const WorkloadSpec& w, const std::string& spec,
      std::size_t bucket_bytes = 0, int workers = 1,
      double backward_frac = sched::kBackwardFraction) const;

  /// The two schedules for a spec the factory already parsed, with the
  /// schedule given explicitly: size-chunked at `chunk_bytes` (0 =
  /// monolithic), or bucketed as above. They resolve nothing, so the
  /// autotuner sweeps through them.
  RoundTime chunked_round(const WorkloadSpec& w,
                          const core::SchemeSpec& scheme,
                          std::size_t chunk_bytes) const;
  RoundTime bucketed_round(const WorkloadSpec& w,
                           const core::SchemeSpec& scheme,
                           std::size_t bucket_bytes, int workers,
                           double backward_frac) const;

 private:
  /// One scheme's serial round plus the parts of it that may pipeline:
  /// what every overlap policy below consumes.
  struct RoundCharge {
    RoundTime serial;
    double payload_bytes = 0.0;      ///< main-stage wire payload
    double step_latency_s = 0.0;     ///< per-chunk collective latency
    double comm_pipelined_s = 0.0;   ///< main-stage collective time
    double compress_pipelined_s = 0.0;  ///< per-chunk encode/decode
    /// Encode compute that needs each gradient coordinate only once
    /// (TopKC's norm pass, THC's blockwise partial rotation, PowerSGD's
    /// per-layer P matmuls) and can therefore stream with the backward
    /// pass; a subset of the non-pipelined compress barrier.
    double backward_streamable_s = 0.0;
  };

  double train_compute(const WorkloadSpec& w, Precision train_precision) const;

  RoundCharge baseline_charge(const WorkloadSpec& w,
                              Precision train_precision,
                              Precision comm_precision) const;
  /// `k` entries per worker, `payload_bytes` of them on the wire.
  RoundCharge topk_charge(const WorkloadSpec& w, double k,
                          double payload_bytes) const;
  /// `top_chunks` (J) chunks of `chunk_size` (C) coordinates.
  RoundCharge topkc_charge(const WorkloadSpec& w, std::size_t top_chunks,
                           std::size_t chunk_size) const;
  RoundCharge thc_charge(const WorkloadSpec& w, unsigned wire_bits,
                         unsigned rotation_iters) const;
  RoundCharge powersgd_charge(const WorkloadSpec& w, std::size_t rank) const;
  RoundCharge scheme_charge(const WorkloadSpec& w,
                            const core::SchemeSpec& scheme) const;

  /// Two-stage pipeline over m = ceil(payload/chunk) items: encode of
  /// chunk k+1 overlaps the hops of chunk k; every chunk beyond the first
  /// pays `step_latency_s` (the collective's pure-latency cost) again.
  /// Only `comm_pipelined_s` of the round's comm (the main stage's
  /// collective — consensus rounds are a barrier) and
  /// `compress_pipelined_s` of its compute (the per-chunk encode/decode —
  /// whole-vector selection/rotation is a barrier) participate.
  RoundTime apply_overlap(const RoundCharge& charge,
                          std::size_t chunk_bytes) const;

  /// Event-driven charge of the sched/ subsystem's schedule: per-bucket
  /// gradient-ready times from sched::BackwardSource gate each bucket's
  /// encode (on the earliest-free of `workers` pool threads) and its
  /// collective (on the serial wire). Whole-vector encode barriers and
  /// consensus rings stay after backward end; streamable encode hides
  /// under the backward pass, whose share of compute is `backward_frac`.
  RoundTime apply_backward_overlap(const RoundCharge& charge,
                                   const WorkloadSpec& w,
                                   std::size_t bucket_bytes, int workers,
                                   double backward_frac) const;

  CostConstants constants_;
  netsim::NetworkModel net_;
  int n_;
};

}  // namespace gcs::sim
