#include "core/aggregation_pipeline.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "comm/chunked_collectives.h"
#include "comm/group.h"
#include "common/check.h"
#include "kernels/kernels.h"
#include "measure/trace.h"
#include "sched/encode_worker_pool.h"
#include "telemetry/flight_recorder.h"

namespace gcs::core {
namespace {

/// Installs a wire tap on a transport for one scope and removes it on the
/// way out (the transports require quiescence at both points — a round
/// boundary satisfies it). A null recorder is a no-op.
class ScopedWireTap {
 public:
  ScopedWireTap(comm::Transport& transport, measure::TraceRecorder* trace)
      : transport_(transport), installed_(trace != nullptr) {
    if (installed_) transport_.set_wire_tap(trace);
  }
  ~ScopedWireTap() {
    if (installed_) transport_.set_wire_tap(nullptr);
  }
  ScopedWireTap(const ScopedWireTap&) = delete;
  ScopedWireTap& operator=(const ScopedWireTap&) = delete;

 private:
  comm::Transport& transport_;
  bool installed_;
};

/// The stage contract every driver relies on: reducible routes carry a
/// ReduceOp and size-symmetric payloads.
void check_stage(const WireStage& stage) {
  if (stage.route == AggregationPath::kAllGather) return;
  GCS_CHECK_MSG(stage.op != nullptr,
                "stage '" << stage.name << "' needs a ReduceOp");
  GCS_CHECK_MSG(stage.symmetric, "stage '" << stage.name
                                           << "': a reducible stage must "
                                              "have symmetric payloads");
}

/// Runs one stage over the local reference aggregators. Chunking is
/// value-transparent, so the chunk plan is validated and the reduction
/// happens once (see comm/chunked_collectives.h). A reduced payload is
/// appended to `reduced`, which the caller keeps until finish(): the
/// session may hold a view of its bytes (the CodecRound contract).
void run_stage_local(const WireStage& stage, CodecRound& round,
                     const std::vector<ByteBuffer>& payloads,
                     std::span<const comm::ChunkRange> chunks,
                     int ps_server, measure::TraceRecorder* trace,
                     std::vector<ByteBuffer>& reduced) {
  switch (stage.route) {
    case AggregationPath::kAllReduce: {
      comm::check_chunk_plan(chunks, payloads[0].size());
      reduced.push_back(
          stage.algorithm == ReduceAlgorithm::kTree
              ? comm::local_tree_all_reduce(payloads, *stage.op)
              : comm::local_ring_all_reduce(payloads, *stage.op));
      // kReduce covers only the absorb, matching aggregate_over (the
      // local aggregators have no wire, so there are no send/recv
      // spans and the collective time is left unattributed by design).
      measure::ScopedSpan reduce_span(trace, measure::Phase::kReduce,
                                      stage.name);
      round.absorb_reduced(reduced.back());
      return;
    }
    case AggregationPath::kParameterServer: {
      comm::check_chunk_plan(chunks, payloads[0].size());
      reduced.push_back(
          comm::local_ps_aggregate(payloads, *stage.op, ps_server));
      measure::ScopedSpan reduce_span(trace, measure::Phase::kReduce,
                                      stage.name);
      round.absorb_reduced(reduced.back());
      return;
    }
    case AggregationPath::kAllGather: {
      // Gather payloads may differ in size across workers (TopK's delta
      // format pads per-worker); the local gather is a pure hand-over.
      measure::ScopedSpan reduce_span(trace, measure::Phase::kReduce,
                                      stage.name);
      round.absorb_gathered(payloads);
      return;
    }
  }
  throw Error("AggregationPipeline: unknown stage route");
}

/// One rank's share of a stage over a real transport: runs the stage's
/// chunked collective on `mine` (the rank's own payload buffer) and
/// returns the gather result for kAllGather routes. Byte-identical
/// traffic on every substrate (comm::Fabric, net::SocketFabric).
std::vector<ByteBuffer> run_stage_rank(const WireStage& stage,
                                       comm::Communicator& comm,
                                       ByteBuffer& mine,
                                       std::span<const comm::ChunkRange>
                                           chunks,
                                       int ps_server) {
  switch (stage.route) {
    case AggregationPath::kAllReduce:
      if (stage.algorithm == ReduceAlgorithm::kTree) {
        comm::chunked_tree_all_reduce(comm, mine, chunks, *stage.op);
      } else {
        comm::chunked_ring_all_reduce(comm, mine, chunks, *stage.op);
      }
      return {};
    case AggregationPath::kParameterServer:
      comm::chunked_ps_aggregate(comm, mine, chunks, *stage.op, ps_server);
      return {};
    case AggregationPath::kAllGather:
      // The chunked all-gather requires symmetric payload sizes; stages
      // whose sizes vary per worker (TopK delta) declare it and take the
      // monolithic gather.
      return stage.symmetric ? comm::chunked_all_gather(comm, mine, chunks)
                             : comm::all_gather(comm, mine);
  }
  throw Error("AggregationPipeline: unknown stage route");
}

/// Commit-barrier tags, far above the collectives' tag space (< 2^32) and
/// distinct from the rendezvous (0xffff'ffff'...) and probe (0x6d5...)
/// namespaces. The low 32 bits carry the round so a straggler of round k
/// can never satisfy round k+1's barrier.
constexpr std::uint64_t kCommitDoneTag = 0xffff'fffd'0000'0000ull;
constexpr std::uint64_t kCommitAckTag = 0xffff'fffe'0000'0000ull;

/// The all-or-nothing commit point of an elastic round: every rank
/// reports DONE to rank 0, which acknowledges each rank directly (a star,
/// deliberately not a tree — an ACK must never be relayed through a rank
/// that might be the one that just died). A rank passes the barrier iff
/// rank 0 heard *every* rank finish the round's collectives; therefore
/// either all survivors of a failure committed the round or none did, and
/// the re-rendezvous resume round is well defined.
void commit_barrier(comm::Communicator& comm, std::uint64_t round) {
  const int n = comm.world_size();
  if (n <= 1) return;
  const std::uint64_t done = kCommitDoneTag | (round & 0xffff'ffffull);
  const std::uint64_t ack = kCommitAckTag | (round & 0xffff'ffffull);
  if (comm.rank() == 0) {
    for (int r = 1; r < n; ++r) {
      (void)comm.recv(r, done);  // a dead rank aborts the whole barrier
    }
    for (int r = 1; r < n; ++r) {
      try {
        comm.send(r, ack, ByteBuffer{});
      } catch (const comm::PeerFailure&) {
        // r reported DONE and died since; whether it commits is moot.
      }
    }
  } else {
    comm.send(0, done, ByteBuffer{});
    (void)comm.recv(0, ack);
  }
}

}  // namespace

AggregationPipeline::AggregationPipeline(SchemeCodecPtr codec,
                                         PipelineConfig config)
    : codec_(std::move(codec)), config_(std::move(config)) {
  GCS_CHECK(codec_ != nullptr);
  // Announce the codec kernel backend once per process so perf runs are
  // attributable (AVX2 vs scalar; see GCS_FORCE_SCALAR).
  static std::once_flag backend_logged;
  std::call_once(backend_logged, [] {
    std::fprintf(stderr, "gcs: codec kernel backend: %s\n",
                 kernels::backend_name());
  });
  if (config_.encode_workers < 1) {
    throw Error("AggregationPipeline: encode_workers must be >= 1");
  }
  tel_.rounds = telemetry::counter("gcs_pipeline_rounds_total");
  tel_.encode_bytes = telemetry::counter("gcs_codec_encode_bytes_total");
  tel_.decode_bytes = telemetry::counter("gcs_codec_decode_bytes_total");
  tel_.round_usec = telemetry::histogram("gcs_pipeline_round_usec");
  tel_.stage_usec = telemetry::histogram("gcs_pipeline_stage_usec");
  tel_.decode_usec = telemetry::histogram("gcs_pipeline_decode_usec");
  lane_ = health::lane("pipeline.round");
  if (config_.bucket_mode == sched::BucketMode::kLayerBuckets) {
    if (config_.layout.total_size() != codec_->dimension()) {
      throw Error(
          "AggregationPipeline: layer buckets need a layout covering the "
          "codec dimension (" +
          std::to_string(config_.layout.total_size()) + " vs " +
          std::to_string(codec_->dimension()) + ")");
    }
    sched::BucketPlannerConfig planner;
    if (config_.bucket_bytes != 0) planner.bucket_bytes = config_.bucket_bytes;
    bucket_plan_ = std::make_unique<sched::BucketPlan>(
        sched::plan_buckets(config_.layout, planner));
  }
  // The pool serves aggregate()'s all-worker encodes.
  if (config_.encode_workers > 1) {
    pool_ =
        std::make_unique<sched::EncodeWorkerPool>(config_.encode_workers);
  }
}

AggregationPipeline::~AggregationPipeline() = default;
AggregationPipeline::AggregationPipeline(AggregationPipeline&&) noexcept =
    default;
AggregationPipeline& AggregationPipeline::operator=(
    AggregationPipeline&&) noexcept = default;

measure::TraceRecorder* AggregationPipeline::active_trace() const noexcept {
  if (config_.trace != nullptr) return config_.trace;
  if (config_.flight != nullptr) return &config_.flight->recorder();
  return nullptr;
}

void AggregationPipeline::commit_flight(std::uint64_t round,
                                        const char* backend) {
  if (config_.flight == nullptr || config_.trace != nullptr) return;
  config_.flight->commit_round(round, codec_->name(), backend);
}

std::vector<comm::ChunkRange> AggregationPipeline::stage_chunks(
    std::size_t payload_bytes, std::size_t granularity) const {
  if (bucket_plan_ != nullptr) {
    return bucket_plan_->chunk_plan(payload_bytes, granularity);
  }
  return comm::chunk_payload(payload_bytes, config_.chunk_bytes, granularity);
}

void AggregationPipeline::encode_rest(
    CodecRound& session, std::vector<ByteBuffer>& payloads,
    std::span<const comm::ChunkRange> chunks) {
  const auto n = payloads.size();
  measure::TraceRecorder* trace = active_trace();
  if (pool_ == nullptr) {
    for (std::size_t w = 1; w < n; ++w) {
      measure::ScopedSpan span(trace, measure::Phase::kEncode, "",
                               static_cast<int>(w));
      payloads[w] = session.encode(static_cast<int>(w));
      span.set_bytes(payloads[w].size());
    }
    return;
  }
  const bool use_ranges = bucket_plan_ != nullptr && !chunks.empty() &&
                          session.supports_encode_range();
  const std::size_t stage_bytes = payloads[0].size();
  for (std::size_t w = 1; w < n; ++w) {
    if (use_ranges) {
      payloads[w].assign(stage_bytes, std::byte{0});
      for (const comm::ChunkRange c : chunks) {
        pool_->submit([&session, &payloads, w, c, trace] {
          measure::ScopedSpan span(trace, measure::Phase::kEncode, "",
                                   static_cast<int>(w));
          session.encode_range(
              static_cast<int>(w), c.offset,
              std::span<std::byte>(payloads[w]).subspan(c.offset, c.size));
          span.set_bytes(c.size);
        });
      }
      continue;
    }
    pool_->submit([&session, &payloads, w, trace] {
      measure::ScopedSpan span(trace, measure::Phase::kEncode, "",
                               static_cast<int>(w));
      payloads[w] = session.encode(static_cast<int>(w));
      span.set_bytes(payloads[w].size());
    });
  }
  pool_->wait_idle();
}

RoundStats AggregationPipeline::aggregate(
    std::span<const std::span<const float>> grads, std::span<float> out,
    std::uint64_t round) {
  const auto n = static_cast<std::size_t>(codec_->world_size());
  GCS_CHECK(grads.size() == n);
  GCS_CHECK(out.size() == codec_->dimension());

  measure::TraceRecorder* trace = active_trace();
  measure::ScopedSpan round_span(trace, measure::Phase::kRound, "aggregate");
  tel_.rounds.inc();
  telemetry::ScopedUsecTimer round_timer(tel_.round_usec);
  health::ArmedScope armed(lane_);
  lane_.beat();

  auto session = codec_->begin_round(grads, round);
  RoundStats stats;
  WireStage stage;
  std::vector<ByteBuffer> payloads(n);
  std::vector<ByteBuffer> reduced;  // every stage's, alive until finish()
  while (session->next_stage(stage)) {
    lane_.beat();
    measure::ScopedSpan stage_span(trace, measure::Phase::kStage,
                                   stage.name);
    telemetry::ScopedUsecTimer stage_timer(tel_.stage_usec);
    check_stage(stage);
    // Worker 0 is always encoded first: its payload size fixes the chunk
    // plan every rank must share.
    {
      measure::ScopedSpan span(trace, measure::Phase::kEncode, "", 0);
      payloads[0] = session->encode(0);
      span.set_bytes(payloads[0].size());
    }
    const std::size_t stage_bytes = payloads[0].size();
    const std::size_t granularity =
        stage.op != nullptr ? stage.op->granularity() : 1;
    const auto chunks = stage_chunks(stage_bytes, granularity);
    encode_rest(*session, payloads, chunks);
    for (std::size_t w = 1; w < n; ++w) {
      // Holding every worker, this driver can verify the declaration the
      // SPMD ranks have to trust.
      GCS_CHECK_MSG(!stage.symmetric || payloads[w].size() == stage_bytes,
                    "stage '" << stage.name << "': asymmetric payload sizes");
    }
    run_stage_local(stage, *session, payloads, chunks, config_.ps_server,
                    trace, reduced);
    if (tel_.encode_bytes.live()) {
      // All n worker payloads were encoded in this process.
      std::uint64_t encoded = 0;
      for (const auto& p : payloads) encoded += p.size();
      tel_.encode_bytes.inc(encoded);
      tel_.decode_bytes.inc(stage.route == AggregationPath::kAllGather
                                ? encoded
                                : stage_bytes);
    }
    (stage.metadata ? stats.metadata_bytes : stats.payload_bytes) +=
        stage_bytes;
  }
  {
    measure::ScopedSpan decode_span(trace, measure::Phase::kDecode,
                                    "finish");
    telemetry::ScopedUsecTimer decode_timer(tel_.decode_usec);
    session->finish(out, stats);
  }
  round_span.close();
  commit_flight(round, "local");
  return stats;
}

RoundStats AggregationPipeline::aggregate_over(
    comm::Communicator& comm, std::span<const std::span<const float>> grads,
    std::span<float> out, std::uint64_t round) {
  const auto n = static_cast<std::size_t>(codec_->world_size());
  GCS_CHECK(grads.size() == n);
  GCS_CHECK_MSG(comm.world_size() == codec_->world_size(),
                "transport world size " << comm.world_size()
                                        << " != codec world size "
                                        << codec_->world_size());
  GCS_CHECK(out.size() == codec_->dimension());
  const int rank = comm.rank();
  // The rank-local view: the codec sees only this rank's gradient, so it
  // compensates, selects, draws and commits for this worker alone.
  std::vector<std::span<const float>> local(n);
  local[static_cast<std::size_t>(rank)] =
      grads[static_cast<std::size_t>(rank)];

  measure::TraceRecorder* trace = active_trace();
  // The caller's transport reports per-chunk send/recv spans for the
  // duration of the round (round boundaries are quiescent points).
  ScopedWireTap tap(comm.transport(), trace);
  measure::ScopedSpan round_span(trace, measure::Phase::kRound, "aggregate");
  tel_.rounds.inc();
  telemetry::ScopedUsecTimer round_timer(tel_.round_usec);
  health::ArmedScope armed(lane_);
  lane_.beat();

  auto session = codec_->begin_round(local, round);
  RoundStats stats;
  WireStage stage;
  for (std::size_t s = 0; session->next_stage(stage); ++s) {
    lane_.beat();
    measure::ScopedSpan stage_span(trace, measure::Phase::kStage,
                                   stage.name);
    telemetry::ScopedUsecTimer stage_timer(tel_.stage_usec);
    check_stage(stage);
    // Only this rank's payload is encoded; the stage's declared symmetry
    // stands in for the peers' sizes, so the rank's own size fixes the
    // chunk plan every rank shares. It is encoded into the stage's own
    // buffer, kept across rounds; the collective reduces in place, and
    // the reduced bytes outlive finish() as the CodecRound contract asks.
    if (stage_payloads_.size() <= s) stage_payloads_.resize(s + 1);
    ByteBuffer& mine = stage_payloads_[s];
    if (scratch_poisoning()) {
      std::fill(mine.begin(), mine.end(), std::byte{0xFF});
    }
    {
      measure::ScopedSpan span(trace, measure::Phase::kEncode, "", rank);
      session->encode_into(rank, mine);
      span.set_bytes(mine.size());
    }
    if (config_.fault_hook) config_.fault_hook("encode", round);
    tel_.encode_bytes.inc(mine.size());
    std::size_t stage_bytes = mine.size();
    const auto chunks = stage_chunks(
        stage_bytes, stage.op != nullptr ? stage.op->granularity() : 1);
    const auto gathered =
        run_stage_rank(stage, comm, mine, chunks, config_.ps_server);
    {
      measure::ScopedSpan reduce_span(trace, measure::Phase::kReduce,
                                      stage.name);
      if (stage.route == AggregationPath::kAllGather) {
        session->absorb_gathered(gathered);
        // Worker 0's payload is the stage's size on every rank (it
        // differs from this rank's own under per-worker padding).
        stage_bytes = gathered[0].size();
        if (tel_.decode_bytes.live()) {
          std::uint64_t absorbed = 0;
          for (const auto& g : gathered) absorbed += g.size();
          tel_.decode_bytes.inc(absorbed);
        }
      } else {
        session->absorb_reduced(mine);
        tel_.decode_bytes.inc(stage_bytes);
      }
    }
    (stage.metadata ? stats.metadata_bytes : stats.payload_bytes) +=
        stage_bytes;
  }
  // Elastic rounds commit atomically: cross-round state (EF memories,
  // warm starts) only mutates once every rank is known to have completed
  // the round's collectives, so an aborted round is retryable from the
  // exact pre-round state on every survivor.
  if (config_.elastic) commit_barrier(comm, round);
  if (config_.fault_hook) config_.fault_hook("decode", round);
  {
    measure::ScopedSpan decode_span(trace, measure::Phase::kDecode,
                                    "finish");
    telemetry::ScopedUsecTimer decode_timer(tel_.decode_usec);
    session->finish(out, stats);
  }
  round_span.close();
  commit_flight(round, "spmd");
  return stats;
}

void AggregationPipeline::adopt_membership(const comm::Membership& current) {
  if (current.original_ranks == membership_.original_ranks) {
    membership_ = current;  // epoch/self may still have moved
    return;
  }
  // Positions of the new members within the previous membership: exactly
  // the codec worker slots whose state survives.
  std::vector<int> survivors;
  survivors.reserve(current.original_ranks.size());
  for (const int original : current.original_ranks) {
    const auto& previous = membership_.original_ranks;
    const auto it = std::find(previous.begin(), previous.end(), original);
    if (it == previous.end()) {
      throw Error(
          "aggregate_elastic: transport membership contains original rank " +
          std::to_string(original) +
          " which was not part of the previous world — members can leave, "
          "not join");
    }
    survivors.push_back(static_cast<int>(it - previous.begin()));
  }
  codec_ = codec_->remap_workers(survivors);
  membership_ = current;
}

RoundStats AggregationPipeline::aggregate_elastic(
    comm::Transport& transport, const GradSource& grad_of,
    std::span<float> out, std::uint64_t round) {
  GCS_CHECK_MSG(config_.elastic,
                "aggregate_elastic needs PipelineConfig::elastic "
                "(factory knob elastic=on)");
  if (membership_.original_ranks.empty()) {
    membership_ = comm::Membership::identity(codec_->world_size());
  }
  // Each failed attempt shrinks the world (or, pathologically, only bumps
  // the epoch); the cap turns a rebuild storm into a loud error instead
  // of an unbounded retry loop.
  const int max_attempts = 2 * membership_.world_size() + 1;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    adopt_membership(transport.membership());
    // Only this rank's gradient is needed: peers' slots stay empty.
    const auto self = static_cast<std::size_t>(membership_.self);
    std::vector<std::span<const float>> views(
        membership_.original_ranks.size());
    views[self] = grad_of(membership_.original_ranks[self]);
    comm::Communicator comm(transport, membership_.self);
    try {
      return aggregate_over(
          comm, std::span<const std::span<const float>>(views), out, round);
    } catch (const comm::PeerFailure&) {
      if (membership_.world_size() <= 1) throw;
      (void)transport.rebuild(round);
      // The retried attempt adopts the shrunken membership (and remaps
      // the codec) at the top of the loop.
    }
  }
  throw Error("aggregate_elastic: round " + std::to_string(round) +
              " failed after " + std::to_string(max_attempts) +
              " membership rebuilds");
}

}  // namespace gcs::core
