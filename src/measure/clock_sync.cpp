#include "measure/clock_sync.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "common/bytes.h"

namespace gcs::measure {

namespace {

constexpr std::uint64_t kPingBit = 0;
constexpr std::uint64_t kPongBit = 1;

std::uint64_t probe_tag(std::uint64_t base, int probe, std::uint64_t kind) {
  return base + 2 * static_cast<std::uint64_t>(probe) + kind;
}

ByteBuffer pack_times(double a, double b, double c) {
  ByteBuffer buf;
  ByteWriter w(buf);
  w.put<double>(a);
  w.put<double>(b);
  w.put<double>(c);
  return buf;
}

}  // namespace

double monotonic_now_s() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ClockModel sync_clocks(comm::Communicator& comm,
                       const ClockSyncOptions& options) {
  GCS_CHECK_MSG(options.probes > 0, "clock sync needs at least one probe");
  const auto now = options.local_clock ? options.local_clock
                                       : std::function<double()>(
                                             &monotonic_now_s);
  const int world = comm.world_size();
  const int rank = comm.rank();

  if (rank == 0) {
    // The reference serves each peer in rank order: echo every ping with
    // (t0, t1, t2) so the peer holds all four timestamps of the probe.
    for (int peer = 1; peer < world; ++peer) {
      for (int probe = 0; probe < options.probes; ++probe) {
        comm::Message ping =
            comm.recv(peer, probe_tag(options.tag_base, probe, kPingBit));
        const double t1 = now();
        ByteReader r(ping.payload);
        const double t0 = r.get<double>();
        const double t2 = now();
        comm.send(peer, probe_tag(options.tag_base, probe, kPongBit),
                  pack_times(t0, t1, t2));
      }
    }
    return ClockModel::identity(0);
  }

  ClockModel model = ClockModel::identity(rank);
  double best_rtt = -1.0;
  for (int probe = 0; probe < options.probes; ++probe) {
    const double t0 = now();
    comm.send(0, probe_tag(options.tag_base, probe, kPingBit),
              pack_times(t0, 0.0, 0.0));
    comm::Message pong =
        comm.recv(0, probe_tag(options.tag_base, probe, kPongBit));
    const double t3 = now();
    ByteReader r(pong.payload);
    const double echoed_t0 = r.get<double>();
    const double t1 = r.get<double>();
    const double t2 = r.get<double>();
    GCS_CHECK_MSG(echoed_t0 == t0, "clock sync pong does not echo the ping");
    const double rtt = (t3 - t0) - (t2 - t1);
    if (best_rtt < 0.0 || rtt < best_rtt) {
      best_rtt = rtt;
      // NTP two-sample offset: the midpoint assumption; its error is the
      // path asymmetry, bounded by rtt/2 — hence the minimum filter.
      model.offset_s = ((t1 - t0) + (t2 - t3)) / 2.0;
      model.base_local_s = (t0 + t3) / 2.0;
      model.rtt_s = rtt;
    }
  }
  return model;
}

ClockSync::ClockSync(ClockSyncOptions options)
    : options_(std::move(options)) {}

const ClockModel& ClockSync::refresh(comm::Communicator& comm) {
  const ClockModel fresh = sync_clocks(comm, options_);
  if (comm.rank() == 0) {
    model_ = fresh;
    return model_;
  }
  if (have_base_) {
    const double dt = fresh.base_local_s - model_.base_local_s;
    // Two passes separated by real time give a rate; refreshes closer
    // than 50 ms would amplify per-probe noise into a bogus slope, so
    // keep the previous drift estimate (0 on the first refresh).
    if (dt > 0.05) {
      const double slope = (fresh.offset_s - model_.offset_s) / dt;
      // A sane quartz crystal is within +-200 ppm; anything bigger is a
      // measurement artefact (scheduling spike on both min-RTT probes).
      if (std::abs(slope) < 5e-3) {
        model_.drift = slope;
      }
    }
  }
  const double drift = model_.drift;
  model_ = fresh;
  model_.drift = drift;
  have_base_ = true;
  return model_;
}

}  // namespace gcs::measure
