#include "runner.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "comm/collectives.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "core/synthetic_grad.h"
#include "core/vnmse.h"
#include "net/socket_fabric.h"
#include "tests/net_test_util.h"
#include "sim/workload.h"
#include "train/dataset.h"
#include "train/mlp.h"
#include "train/optimizer.h"

namespace gcs::bench::e2e {
namespace {

/// Layers of `full` named in `names`, in that order.
ModelLayout pick_layers(const ModelLayout& full,
                        std::initializer_list<const char*> names) {
  std::vector<LayerSpec> picked;
  for (const char* name : names) {
    const auto& layers = full.layers();
    const auto it = std::find_if(layers.begin(), layers.end(),
                                 [&](const LayerSpec& l) {
                                   return l.name == name;
                                 });
    GCS_CHECK_MSG(it != layers.end(), "no layer " << name);
    picked.push_back(*it);
  }
  return ModelLayout(std::move(picked));
}

/// Rounds of each scheme, from the last set-up's first, checked bit for bit
/// against a kLocalReference pipeline fed the same gradients: the warm-up
/// round and the first timed round (training: the first two steps), so
/// both pre-generated gradient rounds and carried codec state are covered.
constexpr std::uint64_t kReferenceRounds = 2;

class Runner {
 public:
  Runner(const WorkloadDef& w, const RunOptions& o);
  RunResult run();

 private:
  struct Op {
    enum Kind { kBuild, kRound, kEval, kTeardown, kStop };
    Kind kind = kStop;
    int scheme = 0;
    std::uint64_t round = 0;  ///< codec round / training step
    bool warmup = false;
    bool traced = false;
    bool probe = false;         ///< rank 0 measures vNMSE and bits/coord
    bool closes_setup = false;  ///< last op of a set-up
  };

  /// One rank's endpoint and per-scheme state for one set-up. The clock
  /// is declared first: the decorators below hold references to it.
  struct Rig {
    RoundClock clock;
    std::unique_ptr<net::SocketFabric> fabric;
    std::unique_ptr<TimedTransport> timed;
    std::vector<std::unique_ptr<core::AggregationPipeline>> pipes;
    std::vector<train::MlpModel> models;
    std::vector<train::SgdMomentum> optimizers;
    train::Batch batch;
    std::vector<float> out, mean;

    comm::Transport& transport() {
      return timed ? static_cast<comm::Transport&>(*timed) : *fabric;
    }
  };

  struct Completion {
    Runner* runner;
    void operator()() noexcept { runner->advance(); }
  };

  void rank_main(int rank);
  void execute(int rank, const Op& op);
  void build(int rank);
  void aggregate(int rank, const Op& op);
  void train_step(int rank, const Op& op);
  void evaluate(int rank, const Op& op);
  void fail(const std::string& what);
  bool failed();

  void advance() noexcept;
  void close_op();
  void plan_setup();
  void plan_cycle();
  bool timed_done(Clock::time_point now) const;
  bool last_setup() const { return setup_ + 1 == w_.setups; }
  void check_reference();

  std::string spec(int s) const {
    return std::string(kSchemes[static_cast<std::size_t>(s)].spec) + w_.knobs;
  }
  SchemeResult& scheme(int s) {
    return result_.schemes[static_cast<std::size_t>(s)];
  }

  const WorkloadDef& w_;
  const RunOptions o_;
  const int n_;
  ModelLayout layout_;
  std::size_t dim_ = 0;
  std::vector<core::PipelineConfig> configs_;

  // Aggregation inputs: two pre-generated rounds of synthetic gradients.
  std::vector<std::vector<std::vector<float>>> grads_;
  std::vector<std::vector<std::span<const float>>> views_;

  // Training inputs and shared per-step gradient slots.
  std::optional<train::MarkovLmDataset> data_;
  std::vector<train::Batch> eval_slices_;
  std::uint64_t init_seed_ = 0, data_offset_ = 0;
  std::vector<std::vector<float>> slots_;

  std::vector<std::unique_ptr<Rig>> rigs_;
  std::vector<LayerTotals> totals_;  ///< [rank * kNumSchemes + scheme]
  std::vector<net::Reactor::Stats> reactor_;  ///< last teardown, per rank

  // Per-op slots, written by rank r, read by the completion.
  std::vector<Clock::time_point> end_;
  std::vector<std::uint64_t> hash_, wire_;
  std::vector<double> loss_;

  // Schedule state: touched only by the barrier completion (and by the
  // rank threads after the barrier releases them, read-only).
  enum class Phase { kSetup, kTimed, kTeardown };
  Op op_;
  Clock::time_point t0_, setup_t0_, phase_t0_;
  std::deque<Op> queue_;
  Phase phase_ = Phase::kSetup;
  int setup_ = 0;         ///< current set-up, 0-based
  int setup_cycles_ = 0;  ///< timed cycles run on the current set-up
  int cycle_ = 0;         ///< timed cycles run in total
  std::string rendezvous_;
  /// Keeps the TCP rendezvous port reserved until the listener binds it.
  std::unique_ptr<net::ReservedTcpPort> port_;
  std::array<bool, kNumSchemes> done_{};
  std::array<double, kNumSchemes> tta_acc_{};
  /// Output hashes of each set-up's warm-up rounds, [scheme][round].
  std::array<std::vector<std::uint64_t>, kNumSchemes> warm_hash_;
  std::array<std::vector<std::uint64_t>, kNumSchemes> ref_hash_;
  /// Training reference inputs: [scheme][step][worker].
  std::array<std::vector<std::vector<std::vector<float>>>, kNumSchemes>
      ref_grads_;

  std::mutex fail_mu_;  ///< guards result_.failures
  RunResult result_;
  std::barrier<Completion> sync_;
  std::barrier<> grads_ready_;
};

Runner::Runner(const WorkloadDef& w, const RunOptions& o)
    : w_(w),
      o_(o),
      n_(w.world),
      totals_(static_cast<std::size_t>(n_ * kNumSchemes)),
      reactor_(static_cast<std::size_t>(n_)),
      end_(static_cast<std::size_t>(n_)),
      hash_(static_cast<std::size_t>(n_)),
      wire_(static_cast<std::size_t>(n_)),
      loss_(static_cast<std::size_t>(n_)),
      sync_(n_, Completion{this}),
      grads_ready_(n_) {
  if (w_.training) {
    init_seed_ = derive_seed(w_.task.seed, 0x1417);
    data_offset_ = derive_seed(w_.task.seed, 0xda7a) & 0xffff'ffffull;
    data_.emplace(make_lm_dataset(w_.task));
    const train::Batch& eval = data_->eval_set();
    for (int r = 0; r < n_; ++r) {
      const std::size_t lo = eval.batch * static_cast<std::size_t>(r) /
                             static_cast<std::size_t>(n_);
      const std::size_t hi = eval.batch * static_cast<std::size_t>(r + 1) /
                             static_cast<std::size_t>(n_);
      train::Batch slice;
      slice.batch = hi - lo;
      slice.features = eval.features;
      slice.x.assign(eval.x.begin() + static_cast<std::ptrdiff_t>(
                                          lo * eval.features),
                     eval.x.begin() + static_cast<std::ptrdiff_t>(
                                          hi * eval.features));
      slice.y.assign(eval.y.begin() + static_cast<std::ptrdiff_t>(lo),
                     eval.y.begin() + static_cast<std::ptrdiff_t>(hi));
      eval_slices_.push_back(std::move(slice));
    }
    const train::MlpModel model(w_.task.dims, init_seed_);
    layout_ = model.layout();
    dim_ = model.dimension();
    slots_.assign(static_cast<std::size_t>(n_), std::vector<float>(dim_));
  } else {
    layout_ = w_.layout;
    dim_ = layout_.total_size();
    // BERT-like gradient statistics (bench/bench_util.h,
    // bert_like_gradients): strong locality, heavy magnitude tail.
    core::SyntheticGradConfig gc;
    gc.layout = layout_;
    gc.world_size = n_;
    gc.locality = 0.999;
    gc.tail_sigma = 1.2;
    gc.layer_sigma = 1.0;
    gc.worker_correlation = 0.8;
    gc.signal_smoothness = 0.97;
    gc.seed = derive_seed(o_.seed, 0x6ead);
    const core::SyntheticGradients source(gc);
    grads_.resize(2);
    views_.resize(2);
    for (std::size_t r = 0; r < 2; ++r) {
      source.generate(r, grads_[r]);
      for (const auto& g : grads_[r]) views_[r].emplace_back(g);
    }
  }
  for (int s = 0; s < kNumSchemes; ++s) {
    configs_.push_back(core::parse_pipeline_config(spec(s), layout_, n_));
  }
}

RunResult Runner::run() {
  plan_setup();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n_));
  rigs_.resize(static_cast<std::size_t>(n_));
  for (int r = 0; r < n_; ++r) {
    threads.emplace_back([this, r] { rank_main(r); });
  }
  for (auto& t : threads) t.join();
  rigs_.clear();
  if (!failed()) check_reference();
  for (int r = 0; r < n_; ++r) {
    const auto& st = reactor_[static_cast<std::size_t>(r)];
    result_.reactor.wakeups += st.wakeups;
    result_.reactor.readv_calls += st.readv_calls;
    result_.reactor.readv_bytes += st.readv_bytes;
    result_.reactor.flush_calls += st.flush_calls;
    result_.reactor.frames_flushed += st.frames_flushed;
    for (int s = 0; s < kNumSchemes; ++s) {
      scheme(s).layers.add(
          totals_[static_cast<std::size_t>(r * kNumSchemes + s)]);
    }
  }
  return std::move(result_);
}

void Runner::rank_main(int rank) {
  for (;;) {
    sync_.arrive_and_wait();
    const Op op = op_;
    if (op.kind == Op::kStop) break;
    try {
      execute(rank, op);
    } catch (const std::exception& e) {
      fail("rank " + std::to_string(rank) + ": " + e.what());
      // Closing this rank's sockets wakes peers blocked on it.
      rigs_[static_cast<std::size_t>(rank)].reset();
      end_[static_cast<std::size_t>(rank)] = Clock::now();
    }
  }
  rigs_[static_cast<std::size_t>(rank)].reset();
}

void Runner::execute(int rank, const Op& op) {
  const auto r = static_cast<std::size_t>(rank);
  switch (op.kind) {
    case Op::kBuild:
      build(rank);
      break;
    case Op::kRound:
      // Rounds stamp their own end, before output hashing.
      if (w_.training) {
        train_step(rank, op);
      } else {
        aggregate(rank, op);
      }
      return;
    case Op::kEval:
      evaluate(rank, op);
      break;
    case Op::kTeardown:
      reactor_[r] = rigs_[r]->fabric->reactor_stats();
      rigs_[r].reset();
      break;
    case Op::kStop:
      break;
  }
  end_[r] = Clock::now();
}

void Runner::build(int rank) {
  auto rig = std::make_unique<Rig>();
  net::SocketFabricConfig fc;
  fc.rendezvous = rendezvous_;
  fc.world_size = n_;
  fc.rank = rank;
  fc.elastic = configs_[0].elastic;
  fc.recv_timeout_ms = 30000;
  rig->fabric = std::make_unique<net::SocketFabric>(fc);
  GCS_CHECK_MSG(rig->fabric->world_size() == n_,
                "mesh formed with " << rig->fabric->world_size() << " of "
                                    << n_ << " ranks");
  if (o_.traced) {
    rig->timed = std::make_unique<TimedTransport>(*rig->fabric, rig->clock);
  }
  for (int s = 0; s < kNumSchemes; ++s) {
    core::SchemeCodecPtr codec = core::make_scheme_codec(spec(s), layout_, n_);
    if (o_.traced) {
      codec = std::make_unique<TimedCodec>(std::move(codec), rig->clock, rank);
    }
    rig->pipes.push_back(std::make_unique<core::AggregationPipeline>(
        std::move(codec), configs_[static_cast<std::size_t>(s)]));
    if (w_.training) {
      rig->models.emplace_back(w_.task.dims, init_seed_);
      rig->optimizers.emplace_back(dim_, w_.task.learning_rate,
                                   w_.task.momentum);
    }
  }
  rig->out.assign(dim_, 0.0f);
  if (w_.training) rig->mean.assign(dim_, 0.0f);
  rigs_[static_cast<std::size_t>(rank)] = std::move(rig);
}

void Runner::aggregate(int rank, const Op& op) {
  const auto r = static_cast<std::size_t>(rank);
  Rig& rig = *rigs_[r];
  const auto& views = views_[op.round % 2];
  const std::uint64_t sent0 = rig.fabric->bytes_sent(rank);
  comm::Communicator comm(rig.transport(), rank);
  const auto start = Clock::now();
  if (op.traced) rig.clock.start(start);
  const core::RoundStats stats =
      rig.pipes[static_cast<std::size_t>(op.scheme)]->aggregate_over(
          comm, std::span<const std::span<const float>>(views), rig.out,
          op.round);
  const auto end = Clock::now();
  end_[r] = end;
  if (op.traced &&
      !rig.clock.stop(end, totals_[r * kNumSchemes +
                                   static_cast<std::size_t>(op.scheme)])) {
    fail(std::string(kSchemes[static_cast<std::size_t>(op.scheme)].key) +
         " round " + std::to_string(op.round) +
         ": traced calls do not tile the round");
  }
  hash_[r] = hash_floats(rig.out.data(), rig.out.size());
  wire_[r] = rig.fabric->bytes_sent(rank) - sent0;
  if (rank == 0 && op.probe) {
    SchemeResult& sr = scheme(op.scheme);
    sr.vnmse = core::vnmse(rig.out,
                           std::span<const std::span<const float>>(views));
    sr.bits_per_coord = stats.bits_per_coordinate(dim_);
  }
}

void Runner::train_step(int rank, const Op& op) {
  const auto r = static_cast<std::size_t>(rank);
  const auto s = static_cast<std::size_t>(op.scheme);
  Rig& rig = *rigs_[r];
  try {
    data_->sample_batch(rank, data_offset_ + op.round,
                        w_.task.batch_per_worker, rig.batch);
    rig.models[s].forward_backward(rig.batch, slots_[r]);
  } catch (const std::exception& e) {
    fail("rank " + std::to_string(rank) + " forward/backward: " + e.what());
  }
  // Every rank's codec encodes every worker's gradient.
  grads_ready_.arrive_and_wait();
  const std::uint64_t sent0 = rig.fabric->bytes_sent(rank);
  const auto grad_of = [this](int original) {
    return std::span<const float>(slots_[static_cast<std::size_t>(original)]);
  };
  const auto start = Clock::now();
  if (op.traced) rig.clock.start(start);
  const core::RoundStats stats = rig.pipes[s]->aggregate_elastic(
      rig.transport(), grad_of, rig.out, op.round);
  if (op.traced &&
      !rig.clock.stop(Clock::now(), totals_[r * kNumSchemes + s])) {
    fail(std::string(kSchemes[s].key) + " step " + std::to_string(op.round) +
         ": traced calls do not tile the round");
  }
  // The optimizer consumes the mean; the sum in rig.out stays for checks.
  const float inv_n = 1.0f / static_cast<float>(n_);
  for (std::size_t i = 0; i < dim_; ++i) rig.mean[i] = rig.out[i] * inv_n;
  rig.optimizers[s].step(rig.models[s].params(), rig.mean);
  end_[r] = Clock::now();
  hash_[r] = hash_floats(rig.out.data(), rig.out.size());
  wire_[r] = rig.fabric->bytes_sent(rank) - sent0;
  if (rank != 0) return;
  if (op.round < kReferenceRounds) ref_grads_[s].push_back(slots_);
  if (op.probe) {
    std::vector<std::span<const float>> views(slots_.begin(), slots_.end());
    SchemeResult& sr = scheme(op.scheme);
    sr.vnmse =
        core::vnmse(rig.out, std::span<const std::span<const float>>(views));
    sr.bits_per_coord = stats.bits_per_coordinate(dim_);
  }
}

void Runner::evaluate(int rank, const Op& op) {
  const auto r = static_cast<std::size_t>(rank);
  Rig& rig = *rigs_[r];
  auto& model = rig.models[static_cast<std::size_t>(op.scheme)];
  loss_[r] = model.evaluate(eval_slices_[r]).mean_loss *
             static_cast<double>(eval_slices_[r].batch);
  hash_[r] = hash_floats(model.params().data(), model.params().size());
}

void Runner::fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(fail_mu_);
  result_.failures.push_back(what);
}

bool Runner::failed() {
  std::lock_guard<std::mutex> lock(fail_mu_);
  return !result_.failures.empty();
}

void Runner::plan_setup() {
  queue_.push_back({Op::kBuild});
  for (int round = 0; round < w_.warmup_rounds; ++round) {
    for (int s = 0; s < kNumSchemes; ++s) {
      Op op{Op::kRound, s, static_cast<std::uint64_t>(round)};
      op.warmup = true;
      op.probe = last_setup() && round == 0;
      queue_.push_back(op);
    }
  }
  queue_.back().closes_setup = true;
  phase_ = Phase::kSetup;
}

void Runner::plan_cycle() {
  const bool traced = o_.traced && (o_.trace_all || cycle_ % 2 == 1);
  if (w_.training) {
    const auto step = static_cast<std::uint64_t>(cycle_);
    for (int s = 0; s < kNumSchemes; ++s) {
      if (done_[static_cast<std::size_t>(s)]) continue;
      Op op{Op::kRound, s, step};
      op.traced = traced;
      op.probe = step == 0;
      queue_.push_back(op);
    }
  } else {
    for (int s = 0; s < kNumSchemes; ++s) {
      Op op{Op::kRound, s,
            static_cast<std::uint64_t>(w_.warmup_rounds + setup_cycles_)};
      op.traced = traced;
      queue_.push_back(op);
    }
  }
  ++cycle_;
  ++setup_cycles_;
}

bool Runner::timed_done(Clock::time_point now) const {
  if (w_.training) {
    // Training runs once, on the last set-up's endpoints.
    return !last_setup() || std::all_of(done_.begin(), done_.end(),
                                        [](bool d) { return d; });
  }
  if (o_.max_cycles > 0) return setup_cycles_ >= o_.max_cycles;
  return setup_cycles_ >= 1 &&
         secs(now - phase_t0_) >= o_.seconds / w_.setups;
}

void Runner::advance() noexcept {
  try {
    close_op();
    const auto now = Clock::now();
    if (failed()) {
      op_ = Op{Op::kStop};
      return;
    }
    if (queue_.empty()) {
      switch (phase_) {
        case Phase::kSetup:
          phase_ = Phase::kTimed;
          phase_t0_ = now;
          setup_cycles_ = 0;
          [[fallthrough]];
        case Phase::kTimed:
          if (timed_done(now)) {
            queue_.push_back({Op::kTeardown});
            phase_ = Phase::kTeardown;
          } else {
            plan_cycle();
          }
          break;
        case Phase::kTeardown:
          if (++setup_ < w_.setups) plan_setup();
          break;
      }
    }
    if (queue_.empty()) {
      op_ = Op{Op::kStop};
      return;
    }
    op_ = queue_.front();
    queue_.pop_front();
    if (op_.kind == Op::kBuild) {
      port_.reset();
      if (w_.tcp) {
        port_ = std::make_unique<net::ReservedTcpPort>();
        rendezvous_ = "tcp:127.0.0.1:" + std::to_string(port_->port());
      } else {
        static std::atomic<int> meshes{0};
        rendezvous_ = "unix:" + o_.socket_dir + "/e2e-" +
                      std::to_string(::getpid()) + "-" +
                      std::to_string(meshes++);
      }
    }
    t0_ = Clock::now();
    if (op_.kind == Op::kBuild) setup_t0_ = t0_;
  } catch (const std::exception& e) {
    fail(std::string("scheduler: ") + e.what());
    op_ = Op{Op::kStop};
  }
}

void Runner::close_op() {
  const Op& op = op_;
  if (op.kind == Op::kStop || op.kind == Op::kTeardown) return;
  const Clock::time_point end = *std::max_element(end_.begin(), end_.end());
  if (op.closes_setup) result_.setup_s.push_back(secs(end - setup_t0_));
  if (op.kind == Op::kBuild) return;
  const auto s = static_cast<std::size_t>(op.scheme);
  SchemeResult& sr = result_.schemes[s];
  const char* key = kSchemes[s].key;
  const bool agree =
      std::all_of(hash_.begin(), hash_.end(),
                  [&](std::uint64_t h) { return h == hash_[0]; });
  if (op.kind == Op::kEval) {
    if (!agree) fail(std::string(key) + ": ranks' parameters diverged");
    double loss = 0;
    for (const double l : loss_) loss += l;
    const double perplexity =
        std::exp(loss / static_cast<double>(data_->eval_set().batch));
    const int steps = static_cast<int>(op.round) + 1;
    if (perplexity <= w_.task.target_perplexity) {
      sr.steps_to_target = steps;
      sr.tta_s = tta_acc_[s];
      done_[s] = true;
    } else if (steps >= w_.task.max_steps) {
      fail(std::string(key) + ": perplexity " + std::to_string(perplexity) +
           " still above the target after " + std::to_string(steps) +
           " steps");
      done_[s] = true;
    }
    return;
  }
  ++result_.ops;
  if (!agree) {
    fail(std::string(key) + " round " + std::to_string(op.round) +
         ": ranks' outputs differ");
  }
  if (last_setup() && op.round < kReferenceRounds) {
    ref_hash_[s].push_back(hash_[0]);
  }
  const double dt = secs(end - t0_);
  if (op.warmup) {
    auto& warm = warm_hash_[s];
    const auto index = static_cast<std::size_t>(op.round);
    if (warm.size() <= index) {
      warm.push_back(hash_[0]);
    } else if (warm[index] != hash_[0]) {
      fail(std::string(key) + " warm-up round " + std::to_string(op.round) +
           " differs between set-ups");
    }
  } else if (w_.training) {
    tta_acc_[s] += dt;
    (op.traced ? sr.traced_round_s : sr.round_s).push_back(dt);
    const auto steps = op.round + 1;
    if (steps % static_cast<std::uint64_t>(w_.task.eval_every) == 0 ||
        steps >= static_cast<std::uint64_t>(w_.task.max_steps)) {
      queue_.push_front({Op::kEval, op.scheme, op.round});
    }
  } else {
    (op.traced ? sr.traced_round_s : sr.round_s).push_back(dt);
  }
  if (last_setup()) {
    std::uint64_t wire = 0;
    for (const auto b : wire_) wire += b;
    sr.out_hash.push_back(hash_[0]);
    sr.wire_bytes.push_back(wire);
  }
}

void Runner::check_reference() {
  // One thread per scheme: each replays its rounds on a fresh
  // kLocalReference pipeline.
  std::vector<std::thread> threads;
  for (int s = 0; s < kNumSchemes; ++s) {
    threads.emplace_back([this, s] {
      const auto si = static_cast<std::size_t>(s);
      const auto& expected = ref_hash_[si];
      try {
        core::AggregationPipeline local(
            core::make_scheme_codec(spec(s), layout_, n_));
        std::vector<float> out(dim_);
        for (std::size_t round = 0; round < expected.size(); ++round) {
          std::vector<std::span<const float>> views;
          if (w_.training) {
            for (const auto& g : ref_grads_[si][round]) views.emplace_back(g);
          } else {
            views = views_[round % 2];
          }
          local.aggregate(std::span<const std::span<const float>>(views), out,
                          round);
          if (hash_floats(out.data(), out.size()) != expected[round]) {
            fail(std::string(kSchemes[si].key) + " round " +
                 std::to_string(round) +
                 ": socket output differs from the local reference");
          }
        }
      } catch (const std::exception& e) {
        fail(std::string(kSchemes[si].key) + " local reference: " + e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = [] {
    const ModelLayout bert = sim::bert_large_layout();
    const ModelLayout bert25 = pick_layers(
        bert, {"encoder.23.ff.up", "encoder.23.ff.up_bias",
               "encoder.23.attn.q", "encoder.23.attn.q_bias",
               "encoder.23.attn.k", "encoder.23.attn.k_bias"});
    GCS_CHECK(bert25.total_size() == 6'297'600);
    const ModelLayout vgg1 = pick_layers(
        sim::vgg19_layout(), {"conv0", "conv0.bias", "conv1", "conv1.bias",
                              "conv2", "conv2.bias", "conv3", "conv3.bias"});
    GCS_CHECK(vgg1.total_size() == 260'160);

    TrainTask lm;
    lm.seed = 1;
    lm.dims = {64, 1024, 32};
    lm.batch_per_worker = 32;
    lm.learning_rate = 0.25;
    lm.momentum = 0.9;
    lm.eval_every = 25;
    lm.max_steps = 1500;
    lm.target_perplexity = 9.0;

    // Why each workload exists: bench/e2e/README.md, "Workloads".
    std::vector<WorkloadDef> out;
    WorkloadDef w;
    w.name = "bert25-w4";
    w.world = 4;
    w.knobs = ":chunk=1048576";
    w.warmup_rounds = 1;
    w.setups = 3;
    w.layout = bert25;
    out.push_back(w);

    w = WorkloadDef{};
    w.name = "vgg1-w2";
    w.world = 2;
    w.knobs = ":chunk=65536";
    w.warmup_rounds = 1;
    w.setups = 9;
    w.layout = vgg1;
    out.push_back(w);

    w = WorkloadDef{};
    w.name = "lm-tta-w4";
    w.world = 4;
    w.knobs = ":fabric=socket:elastic=on";
    // A set-up here is only the mesh and the models (~20 ms): many of
    // them keep the median steady.
    w.setups = 15;
    w.training = true;
    w.task = lm;
    out.push_back(w);

    w = WorkloadDef{};
    w.name = "bert25-pool-w2";
    w.world = 2;
    w.tcp = true;
    w.knobs = ":buckets=layer:bucket=4194304:workers=2";
    w.warmup_rounds = 1;
    w.setups = 3;
    w.layout = bert25;
    out.push_back(w);
    return out;
  }();
  return defs;
}

RunResult run_workload(const WorkloadDef& workload, const RunOptions& opts) {
  try {
    Runner runner(workload, opts);
    return runner.run();
  } catch (const std::exception& e) {
    RunResult result;
    result.failures.push_back(std::string("set-up: ") + e.what());
    return result;
  }
}

train::MarkovLmDataset make_lm_dataset(const TrainTask& task) {
  // The LM proxy of bench/bench_util.h (lm_proxy_task) at the task's
  // vocabulary; the chain seed is the dataset default.
  train::MarkovLmDataset::Config config;
  config.vocab = task.dims.back();
  config.concentration = 0.25;
  config.eval_samples = 1024;
  return train::MarkovLmDataset(config);
}

int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::uint64_t hash_floats(const float* data, std::size_t n) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  const std::size_t size = n * sizeof(float);
  std::uint64_t h = 0x9e37'79b9'7f4a'7c15ull ^ size;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, 8);
    h = (h ^ word) * 0x0000'0100'0000'01b3ull;
    h ^= h >> 32;
  }
  for (; i < size; ++i) h = (h ^ bytes[i]) * 0x0000'0100'0000'01b3ull;
  return h;
}

double tail_quantile(std::size_t n) {
  if (n >= 1000) return 0.99;
  if (n >= 100) return 0.9;
  return 0.0;
}

}  // namespace gcs::bench::e2e
