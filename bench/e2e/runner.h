// The closed-loop harness behind bench_e2e: one thread per rank, each with
// its own net::SocketFabric endpoint (epoll reactor) and one
// core::AggregationPipeline per scheme, all in one process. Rounds of the
// five schemes run interleaved; a round starts when every rank thread
// passes a barrier and ends when the last rank returns, so the slowest
// rank sets the step time, as in synchronous data-parallel training.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/reactor.h"
#include "tensor/layout.h"
#include "timed.h"
#include "train/dataset.h"

namespace gcs::bench::e2e {

struct SchemeDef {
  const char* key;   ///< metric suffix
  const char* spec;  ///< core::make_scheme_codec grammar
};

inline constexpr int kNumSchemes = 5;
inline constexpr std::array<SchemeDef, kNumSchemes> kSchemes{{
    {"fp16", "fp16"},
    {"topk", "topk:b=8"},
    {"topkc", "topkc:b=8"},
    {"thc", "thc:q=4:b=4:sat:partial"},
    {"powersgd", "powersgd:r=4"},
}};

/// The LM-proxy time-to-accuracy task (training workloads).
struct TrainTask {
  /// Fixes initialization and sample order. It is part of the task, not
  /// of --seed, so steps_to_target is an exact property of the code and
  /// the time to accuracy varies only with speed.
  std::uint64_t seed = 0;
  std::vector<std::size_t> dims;  ///< MLP {input, hidden..., classes}
  std::size_t batch_per_worker = 0;
  double learning_rate = 0, momentum = 0;
  int eval_every = 0;
  int max_steps = 0;
  double target_perplexity = 0;
};

struct WorkloadDef {
  std::string name;
  int world = 2;
  bool tcp = false;    ///< TCP loopback instead of Unix-domain sockets
  std::string knobs;   ///< pipeline knobs appended to every scheme spec
  int warmup_rounds = 0;  ///< per scheme and set-up; part of setup_s
  int setups = 1;      ///< set-ups per run; setup_s is their median
  bool training = false;
  ModelLayout layout;  ///< aggregation workloads: the bucket's layers
  TrainTask task;      ///< training workloads
};

/// The four benchmark workloads, in the order `--workload=all` runs them.
const std::vector<WorkloadDef>& workloads();

struct RunOptions {
  std::uint64_t seed = 1;
  /// Aggregation workloads: timed rounds run this long in total, split
  /// evenly over the set-ups so the samples span the whole run.
  double seconds = 15;
  bool traced = false;     ///< decorate codecs/transports, trace odd cycles
  bool trace_all = false;  ///< trace every cycle (selfcheck)
  int max_cycles = 0;      ///< cycles per set-up; 0 = until `seconds`
  std::string socket_dir = ".";  ///< where unix rendezvous sockets live
};

struct SchemeResult {
  std::vector<double> round_s;         ///< timed, untraced rounds / steps
  std::vector<double> traced_round_s;  ///< timed, traced rounds / steps
  LayerTotals layers;                  ///< traced rounds, summed over ranks
  double vnmse = 0, bits_per_coord = 0;  ///< of the first round
  int steps_to_target = 0;  ///< training: steps until the target held
  double tta_s = 0;         ///< training: step time summed until then
  /// Rank 0's output hash and the wire bytes all ranks sent, per round of
  /// the last set-up in execution order.
  std::vector<std::uint64_t> out_hash;
  std::vector<std::uint64_t> wire_bytes;
};

struct RunResult {
  std::vector<double> setup_s;
  std::array<SchemeResult, kNumSchemes> schemes;
  std::uint64_t ops = 0;  ///< rounds and training steps attempted
  std::vector<std::string> failures;
  net::Reactor::Stats reactor;  ///< the last set-up's endpoints, summed
};

/// Runs one workload end to end. Never throws for failures of the system
/// under test; they land in RunResult::failures.
RunResult run_workload(const WorkloadDef& workload, const RunOptions& opts);

/// The LM-proxy dataset of a training task: a fixed Markov chain and
/// held-out set.
train::MarkovLmDataset make_lm_dataset(const TrainTask& task);

/// CPUs this process may run on (its affinity mask).
int cpus_available();

/// Order-sensitive 64-bit hash of a float buffer's bytes.
std::uint64_t hash_floats(const float* data, std::size_t n);

/// The highest of {0.99, 0.9} that has at least 10 of `n` samples beyond
/// it, or 0 when neither has (then only the median is reported).
double tail_quantile(std::size_t n);

}  // namespace gcs::bench::e2e
