// The orchestration layer of the aggregation stack (DESIGN.md section 3).
//
// AggregationPipeline drives a SchemeCodec's round through the transport
// layer: for every wire stage it encodes the payload, splits it into
// chunks (chunk_bytes), and runs the stage's chunked collective chunk by
// chunk, so that in a real deployment the encode of chunk k+1 overlaps
// the hops of chunk k. Two entry points:
//
//   * aggregate_over() — the SPMD round a real deployment runs. Every
//     rank calls it with its own endpoint: a comm::Fabric rank thread
//     (comm::run_workers) or a net::SocketFabric endpoint, one per process
//     or thread. Each rank holds and encodes only its own worker (see
//     CodecRound). aggregate_elastic() wraps it with membership recovery.
//   * aggregate() — the local reference oracle. It holds every worker's
//     gradient, encodes all of them and reduces with the bit-exact,
//     thread-free folds from comm/group.h; the training simulator's hot
//     path. Chunking is value-transparent (transport bit-identity
//     contract), so it validates the chunk plan and reduces once.
//
// Both produce bit-identical aggregated values on every rank; tests close
// the loop over both SPMD substrates and read wire bytes off each rank's
// transport meters. The time saved by per-chunk overlap is charged by
// sim/cost_model.h (RoundTime::overlap_saved_s), keeping the value path
// and the clock model in one frame: same chunk plan in, same stage
// structure out.
//
// The sched/ subsystem (DESIGN.md section 4) sits on top: with
// bucket_mode = kLayerBuckets the chunk plan comes from a DDP-style
// layer-aligned BucketPlan instead of a fixed size, and with
// encode_workers > 1 aggregate()'s per-worker encodes run on an
// EncodeWorkerPool. aggregate_over encodes one payload per stage and does
// not use the pool. Both knobs are value-transparent; the backward-overlap
// time they buy is charged by CostModel::bucketed_round_for_spec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "comm/transport.h"
#include "core/codec.h"
#include "health/heartbeat.h"
#include "sched/bucket_planner.h"
#include "telemetry/metrics.h"
#include "tensor/layout.h"

namespace gcs::comm {
class Communicator;
}

namespace gcs::measure {
class TraceRecorder;
}

namespace gcs::sched {
class EncodeWorkerPool;
}

namespace gcs::telemetry {
class FlightRecorder;
}

namespace gcs::core {

struct PipelineConfig {
  /// Target chunk size in bytes for every stage's payload; 0 = one chunk
  /// spanning the whole payload. Values are identical either way —
  /// chunking affects the wire schedule and the charged round time.
  std::size_t chunk_bytes = 0;
  /// Server rank for kParameterServer stages.
  int ps_server = 0;
  /// How stage payloads split into chunks: fixed-size (`chunk_bytes`,
  /// the default) or layer-aligned DDP-style buckets from the sched/
  /// planner (requires `layout`). Values are bit-identical either way.
  sched::BucketMode bucket_mode = sched::BucketMode::kSizeChunks;
  /// Layer-bucket size cap in FP32 gradient bytes; 0 = the planner's
  /// 25 MB default. Only meaningful with kLayerBuckets.
  std::size_t bucket_bytes = 0;
  /// Encode worker pool width: >1 encodes aggregate()'s per-worker
  /// payloads on a sched::EncodeWorkerPool (deterministic hand-off,
  /// bit-identical to the serial order). Unused by aggregate_over.
  int encode_workers = 1;
  /// Layer table for kLayerBuckets (the factory passes its layout
  /// through). Must cover the codec's dimension.
  ModelLayout layout;
  /// Measurement hook (non-owning, see measure/trace.h): when set, the
  /// pipeline records per-phase monotonic-clock spans — encode per
  /// worker, per-chunk collective send/recv (via the transport's wire
  /// tap), reduce, decode, stage and round envelopes. Null (the default)
  /// means not a single clock read; either way values and wire bytes are
  /// untouched. aggregate_over taps the caller's transport, so give each
  /// traced rank its own endpoint (a comm::TappedTransport view on a
  /// shared comm::Fabric); ranks whose pipeline has no recorder run
  /// untraced.
  measure::TraceRecorder* trace = nullptr;
  /// Always-on flight recorder (non-owning, see
  /// telemetry/flight_recorder.h): when set and `trace` is null, the
  /// recorder's internal TraceRecorder becomes the active span sink and
  /// every committed round rotates into its bounded ring, so a crash or
  /// peer failure can dump the last N rounds post mortem. When `trace` is
  /// also set, the user recorder stays the sink and completed rounds are
  /// observe()d into the ring from the caller instead. Null = off.
  telemetry::FlightRecorder* flight = nullptr;
  /// Elastic membership (socket transport only; DESIGN.md "Fault
  /// tolerance"): survive a peer failure by re-rendezvousing the
  /// survivors and retrying the interrupted round via aggregate_elastic.
  /// Off (the default) keeps the loud-failure experiment contract: a
  /// peer exit mid-round throws on every surviving rank within the peer
  /// timeout. Factory knob: "elastic=on|off".
  bool elastic = false;
  /// Fault-injection hook for the failure-path test harness
  /// (tests/fault_injection.h): when set, invoked at named execution
  /// points of aggregate_over — "encode" right after this rank encodes
  /// its own payload of each stage, "decode" after the round's
  /// collectives (and, in elastic mode, the commit barrier) but before
  /// finish(). The harness's hook _exit()s the process at a chosen
  /// (round, point) to simulate a crash; production runs leave it null
  /// and pay nothing.
  std::function<void(const char* point, std::uint64_t round)> fault_hook;
};

/// Drives encode -> communicate -> decode for one codec (see file
/// comment). Stateful only through the codec it owns.
class AggregationPipeline {
 public:
  explicit AggregationPipeline(SchemeCodecPtr codec,
                               PipelineConfig config = {});
  ~AggregationPipeline();

  AggregationPipeline(AggregationPipeline&&) noexcept;
  AggregationPipeline& operator=(AggregationPipeline&&) noexcept;

  /// Runs one aggregation round. `grads[i]` is worker i's local gradient
  /// (all size codec().dimension()); `out` (same size) receives the
  /// aggregated *sum* estimate every worker holds after the round.
  /// `round` indexes shared randomness.
  RoundStats aggregate(std::span<const std::span<const float>> grads,
                       std::span<float> out, std::uint64_t round);

  /// SPMD entry: runs the same round as aggregate(), but executes the
  /// collectives over `comm`'s transport as rank comm.rank() — every
  /// participating process (or thread) calls this with its own endpoint
  /// and ends up with the identical aggregated sum in `out`. Wire bytes
  /// are read off the caller's transport meters.
  ///
  /// The round is rank-local: only grads[comm.rank()] is read (peers'
  /// spans may be empty), the codec session holds only this rank's
  /// worker, and only this rank's payload is encoded. So this pipeline's
  /// codec advances only its own worker's cross-round state (EF
  /// residual); shared state (PowerSGD Q iterates) advances identically
  /// on every rank from the collectives' results.
  ///
  /// With config.elastic the round ends in a commit barrier (a star
  /// through rank 0) before finish() commits cross-round state: either
  /// every rank that survives the round commits it, or none does — the
  /// invariant that makes a retried round deterministic.
  RoundStats aggregate_over(comm::Communicator& comm,
                            std::span<const std::span<const float>> grads,
                            std::span<float> out, std::uint64_t round);

  /// Per-original-rank gradient source for elastic rounds: must return
  /// worker `original_rank`'s gradient for the round being executed
  /// (size dimension(); the span must stay alive through the call). Only
  /// called for this rank's own original rank.
  using GradSource = std::function<std::span<const float>(int original_rank)>;

  /// Elastic SPMD entry (requires config.elastic and an elastic
  /// transport, i.e. net::SocketFabric with elastic on): runs
  /// aggregate_over and, when a peer fails mid-round, rebuilds the
  /// transport's membership (new epoch, dense re-ranking), remaps the
  /// codec so every survivor's error-feedback and warm-start state rides
  /// across bit-for-bit, and retries the interrupted round over the new
  /// world size with the survivors' gradients. Rounds the cluster
  /// committed before the failure are never re-run (the commit barrier
  /// guarantees survivors agree on what committed). Returns the stats of
  /// the attempt that committed; membership() reports the world it ran
  /// in. Throws PeerFailure only when no recovery is possible (last rank
  /// standing, repeated rebuild storms) and gcs::Error on unrecoverable
  /// protocol divergence.
  RoundStats aggregate_elastic(comm::Transport& transport,
                               const GradSource& grad_of,
                               std::span<float> out, std::uint64_t round);

  /// The membership the last aggregate_elastic round ran in (identity of
  /// the codec's world before the first elastic round).
  const comm::Membership& membership() const noexcept {
    return membership_;
  }

  SchemeCodec& codec() noexcept { return *codec_; }
  const SchemeCodec& codec() const noexcept { return *codec_; }
  const PipelineConfig& config() const noexcept { return config_; }

  /// The layer-bucket plan driving chunk plans (null for kSizeChunks).
  const sched::BucketPlan* bucket_plan() const noexcept {
    return bucket_plan_.get();
  }

 private:
  /// Chunk plan for one stage payload: the bucket plan's layer-aligned
  /// projection under kLayerBuckets, the fixed-size split otherwise.
  std::vector<comm::ChunkRange> stage_chunks(std::size_t payload_bytes,
                                             std::size_t granularity) const;

  /// Encodes workers [1, n) into `payloads` through the worker pool (or
  /// inline without one); payloads[0] must already be encoded. Blocking;
  /// bit-identical to the serial encode order by the pool's slot rule.
  /// On bucketed runs with a range-capable stage, each worker's encode is
  /// split into one pool task per chunk of `chunks` via encode_range
  /// (byte-identical by the CodecRound contract).
  void encode_rest(CodecRound& session, std::vector<ByteBuffer>& payloads,
                   std::span<const comm::ChunkRange> chunks);

  /// The span sink for this round: the user recorder when set, else the
  /// flight recorder's internal one, else null (no clock reads).
  measure::TraceRecorder* active_trace() const noexcept;

  /// Rotates the completed round into the flight recorder's ring when its
  /// recorder was the active sink (no-op otherwise).
  void commit_flight(std::uint64_t round, const char* backend);

  /// Adopts `current` as the pipeline's membership, remapping the codec
  /// when the member set changed (the survivor carry-over).
  void adopt_membership(const comm::Membership& current);

  SchemeCodecPtr codec_;
  PipelineConfig config_;
  comm::Membership membership_;  ///< set on first aggregate_elastic
  std::unique_ptr<sched::BucketPlan> bucket_plan_;
  std::unique_ptr<sched::EncodeWorkerPool> pool_;
  /// aggregate_over's payload buffer per stage, kept across rounds so a
  /// codec that encodes in place (CodecRound::encode_into) reuses its
  /// capacity instead of page-faulting a fresh gradient-sized buffer in.
  std::vector<ByteBuffer> stage_payloads_;

  /// Live-telemetry handles (src/telemetry/metrics.h), acquired at
  /// construction; dead (single-branch no-ops) when telemetry is off.
  /// Orthogonal to config_.trace: the recorder captures every span of a
  /// traced round, these feed cheap always-on counters and latency
  /// histograms a mid-run scrape can read. encode_bytes
  /// (gcs_codec_encode_bytes_total) counts the payload bytes this process
  /// encoded: every worker's under aggregate(), the rank's own under
  /// aggregate_over(); decode_bytes counts the bytes handed back to the
  /// codec.
  struct PipelineTelemetry {
    telemetry::CounterHandle rounds, encode_bytes, decode_bytes;
    telemetry::HistogramHandle round_usec, stage_usec, decode_usec;
  };
  PipelineTelemetry tel_;

  /// Watchdog heartbeat for the round loop: armed for the duration of an
  /// aggregate call, beating at round and stage entry — a round that
  /// wedges between stage boundaries (e.g. every peer silent) leaves the
  /// lane armed and silent past the deadline.
  health::LaneHandle lane_;
};

}  // namespace gcs::core
