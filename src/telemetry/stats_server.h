// In-process stats endpoint: Prometheus text exposition over TCP.
//
// A StatsServer is a tiny single-threaded HTTP/1.0 responder that serves
// the telemetry registry's merged snapshot to anything that connects —
// `curl`, a Prometheus scraper, or tools/gcs_top. One accept thread,
// one request per connection, response written and the connection
// closed; no keep-alive, and exactly four routes: /metrics (also "/"
// and the legacy empty request) returns the exposition text, /healthz
// answers liveness probes with "ok", /health serves the health plane's
// JSON document (set_health_provider; 503 until a provider is
// installed), anything else is a 404.
// That is deliberately minimal: the endpoint runs *inside* a training
// worker, so it must never hold state per client or block the hot path —
// a scrape costs one registry snapshot on the server thread and nothing
// on the workers.
//
// Lifecycle: construct with a port (0 = kernel-assigned, reported by
// port()) to start listening immediately; the destructor (or stop())
// joins the accept thread. Binds 127.0.0.1 only — this is an
// introspection port, not a public service.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "net/socket.h"

namespace gcs::telemetry {

class StatsServer {
 public:
  /// Starts serving on 127.0.0.1:`port` (0 = pick a free port). Throws
  /// gcs::Error when the port cannot be bound.
  explicit StatsServer(int port);
  ~StatsServer();

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  /// The bound port (the kernel's choice when constructed with 0).
  int port() const noexcept { return port_; }

  /// Number of scrape responses served so far.
  std::uint64_t scrapes_served() const noexcept {
    return scrapes_.load(std::memory_order_relaxed);
  }

  /// Installs the /health JSON document builder (the health monitor's
  /// health_json). Called from the server thread per scrape; must be
  /// thread-safe. Until one is installed, /health answers 503.
  void set_health_provider(std::function<std::string()> provider);

  /// Stops the accept loop and joins the thread (idempotent).
  void stop() noexcept;

 private:
  void serve_loop();

  std::mutex health_mu_;
  std::function<std::string()> health_provider_;

  net::Socket listener_;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> scrapes_{0};
  std::thread thread_;
};

}  // namespace gcs::telemetry
