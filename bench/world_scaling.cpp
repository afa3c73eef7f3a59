// World-size sweep of the socket fabric's epoll reactor.
//
// Spins up in-process SocketFabric worlds over Unix-domain sockets — one
// real endpoint per rank, full-mesh rendezvous, real frames on real
// sockets — and times a ring exchange at growing world sizes, doubling
// from 2 ranks up to --max-world (64 by default). Every rank holds one
// reactor I/O thread at any N, so the ladder stays affordable where a
// thread-per-peer model would spend O(N^2) threads on one host.
//
// ring_throughput (rounds/s per world row) is reported for the record,
// deliberately NOT gated: absolute loopback throughput is machine noise
// across CI hosts. The exit code is the gate: it is 1 unless every world
// meshes and every rank receives every ring round's payload intact.
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/bytes.h"
#include "net/launcher.h"
#include "net/socket_fabric.h"

namespace {

using namespace gcs;
using namespace gcs::bench;

/// Reusable generation barrier for the rank threads (start/stop lines of
/// the timed window must be crossed together or the clock measures
/// rendezvous stragglers, not the exchange).
class Barrier {
 public:
  explicit Barrier(int n) : n_(n) {}
  void arrive_and_wait() {
    std::unique_lock lock(mu_);
    const std::uint64_t gen = generation_;
    if (++arrived_ == n_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != gen; });
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int n_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
};

struct SweepPoint {
  double rounds_per_s = 0.0;
  /// Timed ring rounds received intact, summed over ranks (complete
  /// when it equals world * rounds).
  long completed = 0;
  std::string error;  ///< first rank failure; empty when none
};

/// One sweep point: an n-rank UDS world rings `rounds` times with
/// `payload_bytes` messages; every rank is a genuine SocketFabric
/// endpoint on its own thread.
SweepPoint run_world(int n, int rounds, std::size_t payload_bytes,
                     int warmup) {
  const std::string rendezvous = net::unique_unix_rendezvous();
  Barrier barrier(n);
  std::vector<std::thread> threads;
  std::vector<long> completed(static_cast<std::size_t>(n), 0);
  std::mutex error_mu;
  std::chrono::steady_clock::time_point t0, t1;
  SweepPoint point;

  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([&, rank] {
      // A failed rank still crosses the barriers, so its peers time out
      // on it instead of waiting here forever.
      int crossed = 0;
      const auto cross = [&] {
        barrier.arrive_and_wait();
        ++crossed;
      };
      try {
        net::SocketFabricConfig config;
        config.rendezvous = rendezvous;
        config.world_size = n;
        config.rank = rank;
        config.recv_timeout_ms = 60000;
        net::SocketFabric fabric(config);

        const int next = (rank + 1) % n;
        const int prev = (rank + n - 1) % n;
        const ByteBuffer payload(payload_bytes,
                                 static_cast<std::byte>(rank));
        const ByteBuffer expected(payload_bytes,
                                  static_cast<std::byte>(prev));
        const auto ring_round = [&](std::uint64_t tag) {
          fabric.send(rank, next, tag, payload);
          return fabric.recv(rank, prev, tag).payload == expected;
        };
        for (int r = 0; r < warmup; ++r) {
          (void)ring_round(static_cast<std::uint64_t>(r));
        }
        cross();
        if (rank == 0) t0 = std::chrono::steady_clock::now();
        long ok = 0;
        for (int r = 0; r < rounds; ++r) {
          ok += ring_round(1000 + static_cast<std::uint64_t>(r)) ? 1 : 0;
        }
        cross();
        if (rank == 0) t1 = std::chrono::steady_clock::now();
        completed[static_cast<std::size_t>(rank)] = ok;
        cross();  // keep every endpoint alive until t1
      } catch (const std::exception& e) {
        {
          std::lock_guard lock(error_mu);
          if (point.error.empty()) {
            point.error = "rank " + std::to_string(rank) + ": " + e.what();
          }
        }
        while (crossed < 3) cross();
      }
    });
  }
  for (auto& t : threads) t.join();

  for (const long c : completed) point.completed += c;
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  point.rounds_per_s =
      point.error.empty() && seconds > 0.0 ? rounds / seconds : 0.0;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  if (flags.help_requested()) {
    std::cout << "world_scaling: --max-world=<n> --rounds=<n> "
                 "--payload=<bytes> --warmup=<n> --quick\n"
                 "Ring-exchange throughput of the socket fabric's epoll\n"
                 "reactor at world sizes 2, 4, ... up to --max-world.\n"
                 "Exit 1 unless every world completes its ring rounds.\n";
    return 0;
  }
  const bool quick = flags.has("quick");
  const int max_world =
      static_cast<int>(flags.get_int("max-world", quick ? 8 : 64));
  const int rounds = static_cast<int>(flags.get_int("rounds", quick ? 10 : 40));
  const auto payload = static_cast<std::size_t>(
      flags.get_int("payload", quick ? 16384 : 65536));
  const int warmup = static_cast<int>(flags.get_int("warmup", quick ? 1 : 3));
  flags.reject_unknown();

  print_header("World scaling",
               "Ring rounds/s vs world size over the epoll reactor "
               "(one I/O thread per rank)");

  auto& json = bench_json();
  AsciiTable table({"world", "rounds/s", "rounds ok", "status"});
  bool all_ok = true;

  for (int world = 2; world <= max_world; world *= 2) {
    const SweepPoint point = run_world(world, rounds, payload, warmup);
    const long want = static_cast<long>(world) * rounds;
    const bool ok = point.error.empty() && point.completed == want;
    const std::string row = "reactor w=" + std::to_string(world);
    json.set(row, "world", static_cast<double>(world));
    json.set(row, "ring_throughput", point.rounds_per_s);
    json.set(row, "rounds_completed", static_cast<double>(point.completed));
    table.add_row({std::to_string(world), format_sig(point.rounds_per_s, 3),
                   std::to_string(point.completed) + "/" +
                       std::to_string(want),
                   ok ? "ok" : "FAILED"});
    if (!point.error.empty()) {
      std::cerr << "world " << world << ": " << point.error << "\n";
    }
    all_ok = all_ok && ok;
  }
  std::cout << table.to_string();
  json.set("summary", "max_world", static_cast<double>(max_world));
  json.write();

  if (!all_ok) {
    std::cerr << "FAIL: a world did not complete its ring rounds\n";
    return 1;
  }
  std::cout << "world-scaling check passed (every world completed its "
               "ring rounds)\n";
  return 0;
}
