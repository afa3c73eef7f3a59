// The per-worker codec layer of the aggregation stack.
//
// The stack has three explicit layers (DESIGN.md section 3):
//   1. codec         — this header: a scheme expressed as typed wire
//                      stages, each producing per-worker payload bytes and
//                      naming the reduction/routing they need;
//   2. transport     — gcs::comm: the chunked collectives (plus the
//                      monolithic all-gather) that carry those payloads;
//   3. orchestration — core/aggregation_pipeline.h: drives
//                      encode -> communicate -> decode per chunk and owns
//                      chunking/overlap policy.
//
// A SchemeCodec is one process's state of a scheme: per-worker state
// (error-feedback memories) for the workers its sessions hold, and shared
// state every rank evolves identically (PowerSGD iterates, RHT contexts).
// On the SPMD path a rank holds only its own worker. Each round it opens a
// CodecRound: a short-lived session that walks the round's communication
// stages. A stage is one collective over one per-worker payload; stages
// are sequential because later stages may depend on earlier results (TopKC
// selects chunks from the norm consensus, PowerSGD computes Q from the
// orthonormalized P sum). The payload of a stage is a plain byte string
// that the orchestration layer may split into chunks at will:
// every reduction here is element-wise, so chunking never changes values
// (the transport layer's bit-identity contract).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "comm/reduce_op.h"
#include "quant/satint.h"

namespace gcs::core {

/// How a scheme's traffic is carried (determines scalability and, through
/// the network model, time). This is the paper's central structural
/// distinction: a scheme either produces hop-reducible payloads
/// (kAllReduce — TopKC, THC, PowerSGD, the dense baselines) or it must
/// fall back to all-gather (plain TopK) or a parameter server. See
/// DESIGN.md section 10.
enum class AggregationPath : std::uint8_t {
  kAllReduce,        ///< payload is reducible at intermediate hops
  kAllGather,        ///< every worker must see every worker's payload
  kParameterServer,  ///< many-to-one gather, reduce at server, broadcast
};

std::string to_string(AggregationPath path);

/// Wire/compute accounting for one aggregation round.
struct RoundStats {
  /// Bytes of the main (per-worker) payload — the all-reduce input size,
  /// matching the paper's definition of b.
  std::uint64_t payload_bytes = 0;
  /// Bytes of consensus metadata exchanged before the main round
  /// (TopKC chunk norms, THC chunk ranges), also per worker.
  std::uint64_t metadata_bytes = 0;
  /// Saturation clip accounting (THC with saturation; zero otherwise).
  SatStats sat;

  /// The paper's b: all-reduce input bits per gradient coordinate,
  /// including consensus metadata.
  double bits_per_coordinate(std::size_t dimension) const noexcept {
    return dimension == 0 ? 0.0
                          : 8.0 *
                                static_cast<double>(payload_bytes +
                                                    metadata_bytes) /
                                static_cast<double>(dimension);
  }
};

/// Which collective family carries an all-reduce stage.
enum class ReduceAlgorithm : std::uint8_t { kRing, kTree };

/// Declares one communication stage of a round.
struct WireStage {
  /// Stage label for diagnostics ("chunk-norms", "values", ...).
  const char* name = "values";
  /// How the stage's traffic is carried. kAllReduce and kParameterServer
  /// stages reduce with `op`; kAllGather stages deliver every worker's
  /// payload to every worker.
  AggregationPath route = AggregationPath::kAllReduce;
  ReduceAlgorithm algorithm = ReduceAlgorithm::kRing;
  /// Reduction operator (owned by the codec; non-null unless kAllGather).
  const comm::ReduceOp* op = nullptr;
  /// Metadata stages (consensus rounds) count toward
  /// RoundStats::metadata_bytes instead of payload_bytes.
  bool metadata = false;
  /// Every worker's payload for this stage has the same size, fixed by
  /// the stage rather than by the data. A rank that encodes only its own
  /// payload cannot see its peers' sizes, so the stage declares it:
  /// symmetric all-gathers run chunked, the rest (TopK's padded delta
  /// format) fall back to the monolithic gather. Reducible routes must
  /// be symmetric.
  bool symmetric = true;
};

/// One round's encode/decode session. The driving loop (the orchestration
/// layer) is:
///
///   while (round->next_stage(stage)) {
///     payloads[w] = round->encode(w);             // every held worker
///     <chunked collective per stage.route>
///     round->absorb_reduced(...) / absorb_gathered(...);
///   }
///   round->finish(out, stats);
///
/// A session *holds* the workers whose gradients were non-empty at
/// begin_round. On the SPMD path that is one worker, the rank's own; the
/// local and threaded backends hold all of them. Per-worker work
/// (compensation, selection, stochastic draws, EF commits) happens for
/// held workers only, and finish() commits each held worker's
/// cross-round state from begin-time buffers plus the collective's
/// result, so no worker's state depends on another worker's encode.
///
/// The gradients passed to SchemeCodec::begin_round, and the bytes of
/// every payload passed to absorb_reduced or absorb_gathered, must stay
/// alive and unmodified until finish() returns: a session may keep a view
/// of any of them instead of a copy (the dense baselines decode the
/// reduced payload in finish(); TopK scatter-adds the gathered payloads
/// there, straight into the output). The ByteBuffer object itself may
/// move; its bytes may not.
///
/// A session works in round scratch its codec lends it (see
/// lend_scratch), so at most one session per codec is live: begin_round
/// invalidates every earlier session of the same codec.
class CodecRound {
 public:
  virtual ~CodecRound() = default;

  /// Describes the next communication stage; false when the round has no
  /// more stages (then call finish()).
  virtual bool next_stage(WireStage& stage) = 0;

  /// Encodes worker `worker`'s payload for the current stage. Payload
  /// sizes are equal across workers unless the stage is declared
  /// asymmetric (WireStage::symmetric). Throws gcs::Error when the
  /// session does not hold `worker`.
  virtual ByteBuffer encode(int worker) = 0;

  /// encode() into a caller-owned buffer: on return `out` holds exactly
  /// the bytes encode(worker) would return. The orchestration layer keeps
  /// one buffer per stage across rounds, so a codec that writes in place
  /// (resize + fill) makes a steady-state round allocation-free. The
  /// default is `out = encode(worker)`.
  virtual void encode_into(int worker, ByteBuffer& out);

  /// True when encode_range() may be used for the *current* stage: the
  /// stage's payload is a pure per-range function of state fixed before
  /// the stage's first encode (no sequential dependency between ranges).
  /// May differ per stage; re-query after every absorb.
  virtual bool supports_encode_range() const { return false; }

  /// Encodes the byte range [offset, offset + out.size()) of `worker`'s
  /// current-stage payload into `out`: concatenating the ranges of any
  /// tiling of the payload must equal encode(worker) byte-for-byte (the
  /// equivalence test in tests/test_kernels.cpp). Both offset and size
  /// must be multiples of the stage op's granularity(). Thread-safe for
  /// concurrent calls on distinct (worker, range) pairs within one stage —
  /// this is what lets the EncodeWorkerPool encode bucket-sized slices at
  /// gradient-ready time. Throws when !supports_encode_range() or when
  /// the session does not hold `worker`.
  virtual void encode_range(int worker, std::size_t offset,
                            std::span<std::byte> out);

  /// Delivers the reduced payload of a kAllReduce / kParameterServer
  /// stage.
  virtual void absorb_reduced(const ByteBuffer& reduced);

  /// Delivers every worker's payload for a kAllGather stage (indexed by
  /// rank). A session validates them here, before the elastic commit
  /// barrier, and throws gcs::Error on a malformed one, so finish() never
  /// meets a payload it cannot apply.
  virtual void absorb_gathered(std::span<const ByteBuffer> payloads);

  /// Writes the aggregated *sum* estimate every worker ends up holding,
  /// commits cross-round state (held workers' EF memories, shared warm
  /// starts) and fills the parts of `stats` only the codec knows
  /// (saturation accounting).
  virtual void finish(std::span<float> out, RoundStats& stats) = 0;
};

/// One process's codec state of a scheme (see the file comment). Owns
/// whatever must persist across rounds, plus the round scratch it lends
/// its sessions; stateless between begin_round() calls otherwise.
class SchemeCodec {
 public:
  virtual ~SchemeCodec() = default;

  /// Scheme name as used in the paper's tables.
  virtual std::string name() const = 0;

  /// The dominant route of the scheme's main payload (the paper's
  /// structural classification — see AggregationPath).
  virtual AggregationPath path() const = 0;

  virtual int world_size() const = 0;
  virtual std::size_t dimension() const = 0;

  /// Opens the round session. `grads` has one span per worker: worker
  /// i's gradient (size dimension()) when this process holds worker i,
  /// empty otherwise (a rank holds only its own). At least one worker
  /// must be held; see HeldWorkers. `round` indexes shared randomness.
  /// The spans must outlive the returned session.
  virtual std::unique_ptr<CodecRound> begin_round(
      std::span<const std::span<const float>> grads, std::uint64_t round) = 0;

  /// Clears cross-round state (EF memories, warm starts).
  virtual void reset() = 0;

  /// Elastic membership (DESIGN.md "Fault tolerance"): a codec for the
  /// shrunken world whose worker i is this codec's worker survivors[i] —
  /// per-worker cross-round state (EF residuals) carried bit-for-bit,
  /// shared state (PowerSGD Q iterates, permutations) kept as is. The
  /// result behaves exactly like a fresh survivors.size()-worker codec
  /// seeded with the survivors' state. `survivors` must be strictly
  /// increasing worker indices into this codec's world. The five paper
  /// schemes all implement this; the default keeps synthetic/test codecs
  /// honest by refusing loudly.
  virtual std::unique_ptr<SchemeCodec> remap_workers(
      std::span<const int> survivors) const;

  /// Worker `worker`'s error-feedback residual, for diagnostics and the
  /// fault-injection harness's bit-preservation checks. Empty span for
  /// schemes without EF (or with EF disabled). Only the residuals of
  /// workers the codec's sessions held evolve; on the SPMD path that is
  /// the rank's own.
  virtual std::span<const float> ef_memory(int /*worker*/) const {
    return {};
  }
};

/// The workers a round session holds (see CodecRound): validates a
/// begin_round gradient view — one span per worker, each either
/// `dimension` long or empty, at least one non-empty — and answers
/// membership queries for the session's per-worker loops.
class HeldWorkers {
 public:
  HeldWorkers(std::span<const std::span<const float>> grads, int world_size,
              std::size_t dimension);

  bool holds(std::size_t worker) const noexcept {
    return worker < held_.size() && held_[worker] != 0;
  }

  /// Throws gcs::Error naming `codec` unless the session holds `worker`.
  void require(int worker, const SchemeCodec& codec) const;

 private:
  std::vector<std::uint8_t> held_;
};

/// The stage-order guard of a session: throws gcs::Error naming `codec`
/// and `what` unless `ok`. A session checks its own per-round progress
/// with it before reading round scratch, which after the first round
/// always holds an earlier round's values rather than nothing.
void require_stage(bool ok, const SchemeCodec& codec, const char* what);

/// Shared validation for remap_workers implementations: survivors must be
/// a non-empty, strictly increasing subset of [0, world). Throws
/// gcs::Error otherwise.
void check_survivor_set(std::span<const int> survivors, int world_size);

using SchemeCodecPtr = std::unique_ptr<SchemeCodec>;

/// Test-only hook, not an env var or a spec knob: while on, lend_scratch
/// fills every buffer it lends with all-ones bytes, a NaN in every float
/// and an out-of-range value in every index, so a session that reads
/// scratch it did not write this round corrupts its outputs or wire bytes
/// visibly. Process-wide; forked ranks inherit it.
void set_scratch_poisoning_for_testing(bool on) noexcept;
bool scratch_poisoning() noexcept;

/// Lends codec-owned round scratch to a session: sizes `buf` to `n`
/// elements, allocating only when it grows (the first round), and
/// returns it. The contents are unspecified, so the session writes before
/// it reads. Scratch is not state (DESIGN.md 3.1): remap_workers does not
/// carry it, reset() does not clear it, and an aborted round that leaves
/// it half-written changes nothing the next round reads.
template <typename T>
std::span<T> lend_scratch(std::vector<T>& buf, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  buf.resize(n);
  if (scratch_poisoning() && n > 0) {
    std::memset(static_cast<void*>(buf.data()), 0xFF, n * sizeof(T));
  }
  return {buf.data(), n};
}

}  // namespace gcs::core
