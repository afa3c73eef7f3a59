// Transport decorators — wrappers that forward the full Transport
// contract to an inner transport so fault/latency seams compose with any
// fabric (DESIGN.md "Fault tolerance", "Analysis layer").
//
// ForwardingTransport is the boilerplate once: every virtual delegates to
// the inner transport, so a decorator overrides only the operation it
// perturbs. The test harness's kill switch (tests/fault_injection.h) and
// the straggler-injection DelayTransport below both build on it.
//
// TappedTransport gives one rank of a shared transport its own wire tap.
//
// DelayTransport generalizes the kill-switch seam from "die on the k-th
// send" to "be late on every send": it sleeps *before* forwarding, so a
// wire tap installed on the inner transport times only the real wire
// operation and the injected latency shows up on the merged timeline as
// an idle gap in front of the delayed rank's sends — exactly the
// signature of a slow rank, which is what makes it the acceptance seam
// for critical-path straggler attribution (gcs_analyze must name the
// delayed rank and charge the gap to it as stall time).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>

#include "comm/transport.h"

namespace gcs::comm {

/// Delegates the entire Transport contract to `inner`. Derive and
/// override the calls to perturb; everything else stays intact —
/// including membership, rebuild and the wire tap, so decorated
/// transports work under elastic recovery and tracing unchanged.
class ForwardingTransport : public Transport {
 public:
  explicit ForwardingTransport(Transport& inner) : inner_(inner) {}

  int world_size() const override { return inner_.world_size(); }
  void send(int src, int dst, std::uint64_t tag,
            ByteBuffer payload) override {
    inner_.send(src, dst, tag, std::move(payload));
  }
  Message recv(int dst, int src, std::uint64_t tag) override {
    return inner_.recv(dst, src, tag);
  }
  std::uint64_t bytes_sent(int rank) const override {
    return inner_.bytes_sent(rank);
  }
  std::uint64_t bytes_received(int rank) const override {
    return inner_.bytes_received(rank);
  }
  TransportStats stats(int rank) const override { return inner_.stats(rank); }
  void reset_counters() override { inner_.reset_counters(); }
  void set_wire_tap(WireTap* tap) override { inner_.set_wire_tap(tap); }
  Membership membership() const override { return inner_.membership(); }
  Membership rebuild(std::uint64_t resume_round) override {
    return inner_.rebuild(resume_round);
  }

 protected:
  Transport& inner() noexcept { return inner_; }
  const Transport& inner() const noexcept { return inner_; }

 private:
  Transport& inner_;
};

/// One rank's view of a shared transport (the in-process Fabric owns
/// every rank) with a wire tap of its own: set_wire_tap stays on this
/// view and times only the sends and receives made through it, so one
/// rank thread can be traced while its peers run untraced, as each
/// socket endpoint can. Install the tap from the owning rank's thread.
class TappedTransport final : public ForwardingTransport {
 public:
  using ForwardingTransport::ForwardingTransport;

  void send(int src, int dst, std::uint64_t tag,
            ByteBuffer payload) override {
    if (tap_ == nullptr) {
      ForwardingTransport::send(src, dst, tag, std::move(payload));
      return;
    }
    const std::size_t bytes = payload.size();
    const auto start = std::chrono::steady_clock::now();
    ForwardingTransport::send(src, dst, tag, std::move(payload));
    tap_->on_wire(src, dst, /*is_send=*/true, tag, bytes, start,
                  std::chrono::steady_clock::now());
  }
  Message recv(int dst, int src, std::uint64_t tag) override {
    if (tap_ == nullptr) return ForwardingTransport::recv(dst, src, tag);
    const auto start = std::chrono::steady_clock::now();
    Message msg = ForwardingTransport::recv(dst, src, tag);
    tap_->on_wire(dst, src, /*is_send=*/false, tag, msg.payload.size(),
                  start, std::chrono::steady_clock::now());
    return msg;
  }
  void set_wire_tap(WireTap* tap) override { tap_ = tap; }

 private:
  WireTap* tap_ = nullptr;
};

/// Makes the owning rank artificially slow: sleeps `send_delay` before
/// every forwarded send (delay 0 = transparent). The sleep happens
/// outside the inner transport, so wire-tap spans stay honest and the
/// latency appears as scheduling gaps on the merged timeline.
class DelayTransport final : public ForwardingTransport {
 public:
  DelayTransport(Transport& inner,
                 std::chrono::microseconds send_delay)
      : ForwardingTransport(inner), send_delay_(send_delay) {}

  void send(int src, int dst, std::uint64_t tag,
            ByteBuffer payload) override {
    if (send_delay_.count() > 0) std::this_thread::sleep_for(send_delay_);
    ForwardingTransport::send(src, dst, tag, std::move(payload));
  }

  void set_send_delay(std::chrono::microseconds delay) noexcept {
    send_delay_ = delay;
  }
  std::chrono::microseconds send_delay() const noexcept {
    return send_delay_;
  }

 private:
  std::chrono::microseconds send_delay_;
};

/// Hang-injection seam for the watchdog acceptance gate: forwards the
/// first `freeze_after` sends normally, then *stops making progress* —
/// each further send blocks for `hold`, then invokes `on_expire` (the
/// worker harness passes a hard process exit) or, with no callback,
/// throws. Unlike the kill switch this leaves every connection formally
/// open while frozen: no FIN, no error, just silence — exactly the
/// failure mode only a deadline-based watchdog can detect. The frozen
/// rank's *receive* side keeps working (recv is untouched), so its peers'
/// sends never block on backpressure; they hang purely in recv, with
/// their per-peer reader lanes armed, which is the stall the watchdog
/// must name. `hold` bounds the freeze so a CI run cannot hang even if
/// escalation fails.
class FreezeTransport final : public ForwardingTransport {
 public:
  FreezeTransport(Transport& inner, std::uint64_t freeze_after,
                  std::chrono::milliseconds hold,
                  std::function<void()> on_expire = {})
      : ForwardingTransport(inner),
        freeze_after_(freeze_after),
        hold_(hold),
        on_expire_(std::move(on_expire)) {}

  void send(int src, int dst, std::uint64_t tag,
            ByteBuffer payload) override {
    const std::uint64_t n = sends_.fetch_add(1, std::memory_order_relaxed);
    if (n >= freeze_after_) {
      std::this_thread::sleep_for(hold_);
      if (on_expire_) on_expire_();
      throw Error("FreezeTransport: frozen send held past " +
                  std::to_string(hold_.count()) + " ms");
    }
    ForwardingTransport::send(src, dst, tag, std::move(payload));
  }

  std::uint64_t sends() const noexcept {
    return sends_.load(std::memory_order_relaxed);
  }

 private:
  const std::uint64_t freeze_after_;
  const std::chrono::milliseconds hold_;
  const std::function<void()> on_expire_;
  std::atomic<std::uint64_t> sends_{0};
};

}  // namespace gcs::comm
