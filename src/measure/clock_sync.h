// Cross-rank clock synchronization — the time base of the causal
// profiler (DESIGN.md "Analysis layer").
//
// Every TraceRecorder stamps spans on its own process's monotonic clock.
// Those clocks share no epoch (CLOCK_MONOTONIC starts at boot, forked
// workers inherit it, remote hosts don't), so per-rank traces cannot be
// laid on one timeline without a mapping. This file estimates that
// mapping the way NTP does, but over the job's own comm::Transport so it
// works on any fabric the collectives work on:
//
//   rank r                          rank 0
//   t0 = now(); send(ping{t0})  ->  t1 = now() on arrival
//                                   t2 = now(); send(pong{t0,t1,t2})
//   t3 = now() on arrival       <-
//
//   offset  θ = ((t1 - t0) + (t2 - t3)) / 2     (rank r + θ = rank 0)
//   rtt     δ = (t3 - t0) - (t2 - t1)
//
// θ's error is bounded by the path asymmetry, itself bounded by δ/2 — so
// out of K probes the sample with minimum δ wins (the classic minimum
// filter: queueing delay only ever adds). Two temporally separated
// exchanges yield a drift rate, so a model refreshed at rendezvous keeps
// sub-RTT accuracy over a long run without re-syncing every round.
//
// sync is SPMD and collective: every rank of the world calls it at the
// same point (rendezvous, or a round boundary for refreshes). Rank 0 is
// the reference and serves each peer in rank order; its own model is the
// identity. Tags live in a private high namespace so a sync cannot
// collide with collective traffic on strict-matching fabrics.
#pragma once

#include <cstdint>
#include <functional>

#include "comm/collectives.h"

namespace gcs::measure {

/// Affine map from one rank's local monotonic seconds onto rank 0's
/// timeline: reference = local + offset + drift * (local - base_local).
/// Rank 0's model is the identity. rtt_s is the winning probe's round
/// trip — the honest error bound on offset_s (asymmetry <= rtt/2).
struct ClockModel {
  int rank = 0;
  double offset_s = 0.0;
  double drift = 0.0;        ///< d(offset)/d(local), dimensionless
  double base_local_s = 0.0; ///< local instant offset_s was measured at
  double rtt_s = 0.0;

  double to_reference(double local_s) const noexcept {
    return local_s + offset_s + drift * (local_s - base_local_s);
  }

  static ClockModel identity(int rank = 0) noexcept {
    ClockModel m;
    m.rank = rank;
    return m;
  }
};

/// Seconds on the raw local monotonic clock (steady_clock
/// time_since_epoch) — the same clock TraceRecorder epochs live on.
double monotonic_now_s() noexcept;

struct ClockSyncOptions {
  /// Ping-pong probes per peer; the min-RTT sample wins.
  int probes = 16;
  /// Private tag namespace; offset per probe. High bits keep it disjoint
  /// from collective tags on strict-matching fabrics.
  std::uint64_t tag_base = 0xC1'0C'00'00'00'00'00'00ull;
  /// The local clock to synchronize. Injectable so tests can plant a
  /// known offset/drift/asymmetry and assert recovery; defaults to
  /// monotonic_now_s (and must stay on that clock in production — the
  /// model is applied to TraceRecorder epochs).
  std::function<double()> local_clock;
};

/// One collective sync pass: estimates this rank's offset against rank 0
/// (identity for rank 0 itself). Every rank of `comm`'s world must call
/// this at the same protocol point. Returns a model with drift = 0; use
/// ClockSync to accumulate drift across refreshes.
ClockModel sync_clocks(comm::Communicator& comm,
                       const ClockSyncOptions& options = {});

/// Drift-tracking wrapper: refresh() runs sync_clocks and folds the new
/// offset into the running model, estimating drift from the offset delta
/// between temporally separated passes. Call at rendezvous and then
/// periodically (every N rounds); model() is always safe to read between
/// refreshes.
class ClockSync {
 public:
  explicit ClockSync(ClockSyncOptions options = {});

  const ClockModel& model() const noexcept { return model_; }

  /// Collective, like sync_clocks. Returns the updated model.
  const ClockModel& refresh(comm::Communicator& comm);

 private:
  ClockSyncOptions options_;
  ClockModel model_;
  bool have_base_ = false;
};

}  // namespace gcs::measure
