// bench_e2e — measured round time and time-to-accuracy over the socket
// fabric, split layer by layer from outside (bench/e2e/README.md).
//
// Every workload runs the production path, AggregationPipeline::
// aggregate_over over net::SocketFabric with the epoll reactor, one rank
// thread per endpoint in this process, the five schemes interleaved
// round by round. The untraced run prints the end-to-end metrics; the
// traced run (--trace=1) decorates codecs and transports (timed.h),
// traces every other cycle, and prints the per-layer metrics. Outputs are
// checked on every round; any failure exits 1.
//
//   bench_e2e --workload=<name>|all --seed=<n> --seconds=<s> --trace=<0|1>
//             [--out=<dir>] [--selfcheck]
#include <algorithm>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "kernels/kernels.h"
#include "runner.h"
#include "sim/cost_model.h"
#include "train/mlp.h"
#include "train/optimizer.h"

namespace gcs::bench::e2e {

int run_selfcheck();  // selfcheck.cpp

namespace {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : percentile(v, 0.5);
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string key(int s) { return kSchemes[static_cast<std::size_t>(s)].key; }

std::vector<Metric> end_to_end_metrics(const WorkloadDef& w,
                                       const RunResult& r) {
  std::vector<Metric> m{{"setup_s", median(r.setup_s), "s"}};
  for (int s = 0; s < kNumSchemes; ++s) {
    const SchemeResult& sr = r.schemes[static_cast<std::size_t>(s)];
    m.push_back({"wall_ms." + key(s),
                 1e3 * (w.training ? sr.tta_s : median(sr.round_s)), "ms"});
  }
  return m;
}

/// Median GB/s of `fn` over `bytes` of gradient data: batches of calls
/// long enough to time (>= 5 ms), median of five batches.
double kernel_gbps(std::size_t bytes, const std::function<void()>& fn) {
  int reps = 1;
  for (;;) {
    const auto s = Clock::now();
    for (int i = 0; i < reps; ++i) fn();
    if (secs(Clock::now() - s) >= 5e-3) break;
    reps *= 2;
  }
  std::vector<double> rates;
  for (int batch = 0; batch < 5; ++batch) {
    const auto s = Clock::now();
    for (int i = 0; i < reps; ++i) fn();
    rates.push_back(static_cast<double>(bytes) * reps /
                    secs(Clock::now() - s) / 1e9);
  }
  return median(rates);
}

/// Isolated single-thread calls into kernels::active() at `d`
/// coordinates, the shapes the codecs use.
std::vector<Metric> kernel_metrics(std::size_t d, int world,
                                   std::uint64_t seed) {
  const kernels::Backend& k = kernels::active();
  Rng rng(derive_seed(seed, 0x4e41));
  std::vector<float> x(d), y(d), z(d), u(d);
  for (std::size_t i = 0; i < d; ++i) {
    x[i] = static_cast<float>(rng.next_gaussian());
    y[i] = static_cast<float>(rng.next_gaussian());
    u[i] = rng.next_float();
  }
  std::vector<std::uint16_t> half(d);
  std::vector<std::uint8_t> lanes(d / 2);
  std::vector<std::uint32_t> idx(d);
  float lo = 0, hi = 0;
  k.min_max(x.data(), d, &lo, &hi);
  // TopK b=8 keeps d/6 coordinates; estimate that threshold from a sample.
  std::vector<float> sample;
  for (std::size_t i = 0; i < d; i += std::max<std::size_t>(1, d / 4096)) {
    sample.push_back(std::abs(x[i]));
  }
  std::sort(sample.begin(), sample.end());
  const float threshold = sample[sample.size() * 5 / 6];
  std::size_t pow2 = 1;
  while (pow2 * 2 <= d) pow2 *= 2;
  std::size_t levels = 0;
  for (std::size_t h = 1; h < pow2; h *= 2) ++levels;

  const std::size_t bytes = 4 * d;
  std::vector<Metric> m;
  const auto add = [&](const char* name, double gbps) {
    m.push_back({std::string("kernels.") + name + "_GBps", gbps, "GB/s"});
  };
  add("fp32_to_fp16", kernel_gbps(bytes, [&] {
        k.fp32_to_fp16(x.data(), d, half.data());
      }));
  add("fp16_to_fp32", kernel_gbps(bytes, [&] {
        k.fp16_to_fp32(half.data(), d, z.data());
      }));
  add("thc_encode", kernel_gbps(bytes, [&] {
        k.thc_encode_lanes(x.data(), u.data(), d, lo, hi, 4, 4,
                           lanes.data());
      }));
  add("thc_decode", kernel_gbps(bytes, [&] {
        k.thc_decode_lanes(lanes.data(), d, lo, hi, 4, 4,
                           static_cast<unsigned>(world), z.data());
      }));
  // One read+write pass per butterfly level over the power-of-two prefix.
  add("fwht", kernel_gbps(4 * pow2 * levels, [&] {
        for (std::size_t h = 1; h < pow2; h *= 2) {
          k.fwht_level(z.data(), pow2, h);
        }
      }));
  add("topk_select", kernel_gbps(bytes, [&] {
        k.abs(x.data(), d, z.data());
        (void)k.count_gt(z.data(), d, threshold);
        (void)k.collect_ge(z.data(), d, threshold, idx.data());
      }));
  add("ef_add", kernel_gbps(bytes, [&] {
        k.add(x.data(), y.data(), d, z.data());
      }));
  return m;
}

/// Median seconds of `reps` calls of `fn`.
double median_call_s(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto s = Clock::now();
    fn();
    t.push_back(secs(Clock::now() - s));
  }
  return median(t);
}

/// Isolated calls into train::MlpModel and SgdMomentum at the LM-proxy
/// task's shape (one worker's batch).
std::vector<Metric> train_metrics(std::uint64_t seed) {
  const auto& defs = workloads();
  const auto lm = std::find_if(defs.begin(), defs.end(),
                               [](const WorkloadDef& w) { return w.training; });
  const TrainTask& task = lm->task;
  const train::MarkovLmDataset data = make_lm_dataset(task);
  train::MlpModel model(task.dims, derive_seed(seed, 0x1417));
  train::SgdMomentum opt(model.dimension(), task.learning_rate, task.momentum);
  std::vector<float> grad(model.dimension());
  train::Batch batch;
  data.sample_batch(0, 0, task.batch_per_worker, batch);
  const double fwd_bwd =
      median_call_s(41, [&] { model.forward_backward(batch, grad); });
  const double step = median_call_s(201, [&] {
    opt.step(model.params(), grad);
  });
  const double eval =
      median_call_s(5, [&] { (void)model.evaluate(data.eval_set()); });
  return {{"train.fwd_bwd_ms", 1e3 * fwd_bwd, "ms"},
          {"train.optimizer_ms", 1e3 * step, "ms"},
          {"train.eval_ms", 1e3 * eval, "ms"}};
}

std::vector<Metric> per_layer_metrics(const WorkloadDef& w,
                                      const RunResult& r,
                                      std::uint64_t seed) {
  std::vector<Metric> m;
  const std::size_t d =
      w.training ? train::MlpModel(w.task.dims, 0).dimension()
                 : w.layout.total_size();
  for (auto& k : kernel_metrics(d, w.world, seed)) m.push_back(k);
  double traced_sum = 0, untraced_sum = 0;
  for (int s = 0; s < kNumSchemes; ++s) {
    const SchemeResult& sr = r.schemes[static_cast<std::size_t>(s)];
    const LayerTotals& l = sr.layers;
    const double n = static_cast<double>(l.rounds);
    const auto ms = [&](double total) { return 1e3 * ratio(total, n); };
    const std::string k = "." + key(s);
    m.push_back({"codec.begin_ms" + k, ms(l.begin), "ms"});
    m.push_back({"codec.encode_self_ms" + k, ms(l.encode_self), "ms"});
    m.push_back({"codec.encode_peer_ms" + k, ms(l.encode_peer), "ms"});
    m.push_back({"codec.absorb_ms" + k, ms(l.absorb), "ms"});
    m.push_back({"codec.finish_ms" + k, ms(l.finish), "ms"});
    m.push_back({"codec.vnmse" + k, sr.vnmse, "ratio"});
    m.push_back({"codec.bits_per_coord" + k, sr.bits_per_coord, "bits"});
    m.push_back({"comm.collective_ms" + k, ms(l.collective), "ms"});
    m.push_back({"comm.msgs_per_round" + k,
                 ratio(static_cast<double>(l.msgs), n), "count"});
    m.push_back({"net.send_ms" + k, ms(l.send), "ms"});
    m.push_back({"net.recv_wait_ms" + k, ms(l.recv), "ms"});
    m.push_back({"net.wire_bytes_per_round" + k,
                 ratio(static_cast<double>(l.wire_bytes), n), "bytes"});
    m.push_back({"sched.pool_encode_share" + k,
                 ratio(l.pool_encode, l.encode_peer), "share"});
    m.push_back({"sched.encode_hidden_share" + k,
                 ratio(l.hidden, l.pool_encode), "share"});
    m.push_back({"pipeline.glue_ms" + k, ms(l.glue), "ms"});
    m.push_back({"pipeline.commit_ms" + k, ms(l.commit), "ms"});
    m.push_back({"train.steps_to_target" + k,
                 static_cast<double>(sr.steps_to_target), "count"});
    traced_sum += mean(sr.traced_round_s);
    untraced_sum += mean(sr.round_s);
  }
  m.push_back(
      {"pipeline.trace_overhead", ratio(traced_sum, untraced_sum) - 1, "share"});
  const net::Reactor::Stats& st = r.reactor;
  const auto frames = static_cast<double>(st.frames_flushed);
  m.push_back({"net.syscalls_per_frame",
               ratio(static_cast<double>(st.readv_calls + st.flush_calls),
                     frames),
               "count"});
  m.push_back({"net.bytes_per_readv",
               ratio(static_cast<double>(st.readv_bytes),
                     static_cast<double>(st.readv_calls)),
               "bytes"});
  m.push_back({"net.frames_per_flush",
               ratio(frames, static_cast<double>(st.flush_calls)), "count"});
  m.push_back({"net.wakeups_per_frame",
               ratio(static_cast<double>(st.wakeups), frames), "count"});
  for (auto& t : train_metrics(seed)) m.push_back(t);
  return m;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// A JSON number keeping every measured digit (clock ticks are 1 ns).
std::string number(double v) {
  std::ostringstream os;
  os << std::setprecision(15) << (std::isfinite(v) ? v : 0.0);
  return os.str();
}

/// The traced run's per-rank round split, one row per scheme; the parts
/// add up to the round column.
void print_trace_table(const WorkloadDef& w, const RunResult& r) {
  AsciiTable table({"scheme", "rounds", "round", "begin", "enc_self",
                    "enc_peer", "send", "recv_wait", "absorb", "collective",
                    "commit", "finish", "glue", "glue_share", "pool_enc"});
  for (int s = 0; s < kNumSchemes; ++s) {
    const LayerTotals& l = r.schemes[static_cast<std::size_t>(s)].layers;
    const double n = static_cast<double>(l.rounds);
    const auto ms = [&](double v) { return format_fixed(1e3 * ratio(v, n), 3); };
    table.add_row({key(s), std::to_string(l.rounds / w.world), ms(l.round),
                   ms(l.begin), ms(l.encode_self),
                   ms(l.encode_peer - l.pool_encode), ms(l.send), ms(l.recv),
                   ms(l.absorb), ms(l.collective), ms(l.commit),
                   ms(l.finish), ms(l.glue),
                   format_percent(ratio(l.glue, l.round), 2),
                   ms(l.pool_encode)});
  }
  std::cout << "ms per rank per traced round (pool_enc runs off the rank "
               "thread and is not part of the sum):\n"
            << table.to_string();
}

/// Sample counts, tail percentiles where at least ten samples lie beyond
/// them, TTA detail, and the cost model's charge for the same bucket
/// (informational, not a metric) — printed and recorded in `json`.
void report_untraced_detail(const WorkloadDef& w, const RunResult& r,
                            BenchJson& json) {
  std::cout << "  setup_s samples:";
  for (const double s : r.setup_s) std::cout << ' ' << format_fixed(s, 3);
  std::cout << '\n';
  const sim::WorkloadSpec spec{w.name, w.layout, 0.0};
  const sim::CostModel cost(sim::CostConstants{}, netsim::NetworkModel{},
                            w.world);
  for (int s = 0; s < kNumSchemes; ++s) {
    const SchemeResult& sr = r.schemes[static_cast<std::size_t>(s)];
    const std::size_t n = sr.round_s.size();
    const std::string k = "." + key(s);
    std::cout << "  " << key(s) << ": " << n
              << (w.training ? " steps" : " rounds") << ", median "
              << format_fixed(1e3 * median(sr.round_s), 3) << " ms";
    json.set(w.name, "samples" + k, static_cast<double>(n));
    json.set(w.name, "round_ms" + k, 1e3 * median(sr.round_s));
    if (const double q = tail_quantile(n); q > 0) {
      const std::string p = "p" + std::to_string(static_cast<int>(q * 100));
      const double tail = 1e3 * percentile(sr.round_s, q);
      std::cout << ", " << p << ' ' << format_fixed(tail, 3) << " ms";
      json.set(w.name, "round_ms_" + p + k, tail);
    } else {
      std::cout << " (median only: fewer than 100 samples)";
    }
    if (w.training) {
      std::cout << ", steps_to_target " << sr.steps_to_target << ", tta "
                << format_fixed(sr.tta_s, 3) << " s";
      json.set(w.name, "steps_to_target" + k, sr.steps_to_target);
    } else {
      const std::string full_spec =
          std::string(kSchemes[static_cast<std::size_t>(s)].spec) + w.knobs;
      const double charged = cost.round_for_spec(spec, full_spec).total();
      std::cout << "; cost-model charge " << format_fixed(1e3 * charged, 3)
                << " ms (informational)";
      json.set(w.name, "charged_ms_informational" + k, 1e3 * charged);
    }
    std::cout << '\n';
  }
}

void usage() {
  std::cout
      << "bench_e2e --workload=<name>|all --seed=<n> --seconds=<s> "
         "--trace=<0|1> [--out=<dir>] [--selfcheck]\n"
         "workloads:";
  for (const auto& w : workloads()) std::cout << ' ' << w.name;
  std::cout << '\n';
}

}  // namespace
}  // namespace gcs::bench::e2e

int main(int argc, char** argv) {
  using namespace gcs::bench::e2e;
  const std::set<std::string> known{"workload", "seed",   "seconds",
                                    "trace",    "traced", "out",
                                    "selfcheck", "help"};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2, arg.find('=') == std::string::npos
                            ? std::string::npos
                            : arg.find('=') - 2);
    if (known.count(arg) == 0) {
      std::cerr << "bench_e2e: unknown flag --" << arg << '\n';
      usage();
      return 2;
    }
  }
  std::vector<const WorkloadDef*> selected;
  RunOptions opts;
  std::string out_dir;
  try {
    const gcs::CliFlags flags(argc, argv);
    if (flags.help_requested() || flags.has("help")) {
      usage();
      return 0;
    }
    if (flags.has("selfcheck")) return run_selfcheck();
    opts.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    opts.seconds = flags.get_double("seconds", 15);
    opts.traced =
        flags.get_int("trace", 0) != 0 || flags.get_bool("traced", false);
    out_dir = flags.get_string("out", "");
    if (!out_dir.empty()) opts.socket_dir = out_dir;
    const std::string name = flags.get_string("workload", "all");
    for (const auto& w : workloads()) {
      if (name == "all" || name == w.name) selected.push_back(&w);
    }
    if (selected.empty()) {
      std::cerr << "bench_e2e: unknown workload '" << name << "'\n";
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << '\n';
    return 2;
  }
  const int cpus = cpus_available();
  for (const WorkloadDef* w : selected) {
    if (w->world > cpus) {
      std::cerr << "bench_e2e: workload " << w->name << " needs " << w->world
                << " rank threads but only " << cpus
                << " CPUs are available; refusing to oversubscribe\n";
      return 2;
    }
  }

  gcs::bench::BenchJson json("e2e");
  json.set("meta", "nproc", cpus);
  json.set("meta", "cpu", cpu_model());
  json.set("meta", "kernel_backend", gcs::kernels::backend_name());
  json.set("meta", "seed", static_cast<double>(opts.seed));
  json.set("meta", "seconds", opts.seconds);
  json.set("meta", "traced", opts.traced ? 1.0 : 0.0);
  std::cout << "bench_e2e: nproc " << cpus << ", cpu " << cpu_model()
            << ", kernels " << gcs::kernels::backend_name() << ", seed "
            << opts.seed << (opts.traced ? ", traced" : ", untraced")
            << '\n';

  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> reported;
  for (const WorkloadDef* w : selected) {
    std::cout << "== " << w->name << " (world " << w->world << ", "
              << (w->tcp ? "tcp" : "uds") << ") ==\n";
    const RunResult r = run_workload(*w, opts);
    attempted += r.ops;
    failed += r.failures.size();
    for (const auto& f : r.failures) std::cout << "FAILED: " << f << '\n';
    std::vector<Metric> metrics;
    if (r.failures.empty()) {
      metrics = opts.traced ? per_layer_metrics(*w, r, opts.seed)
                            : end_to_end_metrics(*w, r);
    }
    for (const Metric& m : metrics) {
      std::cout << "  " << std::left << std::setw(36) << m.name << ' '
                << std::right << std::setw(16) << number(m.value) << ' '
                << m.unit << '\n';
      json.set(w->name, m.name, m.value);
      reported.push_back(
          {selected.size() > 1 ? w->name + "/" + m.name : m.name, m.value,
           m.unit});
    }
    if (r.failures.empty()) {
      if (opts.traced) {
        print_trace_table(*w, r);
      } else {
        report_untraced_detail(*w, r, json);
      }
    }
    std::cout << "  ops " << r.ops << ", ops_failed " << r.failures.size()
              << '\n';
    json.set(w->name, "ops", static_cast<double>(r.ops));
    json.set(w->name, "ops_failed", static_cast<double>(r.failures.size()));
  }
  if (!out_dir.empty()) json.write(out_dir);

  std::ostringstream line;
  line << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    line << (i ? ", " : "") << '"' << reported[i].name << "\": {\"value\": "
         << number(reported[i].value) << ", \"unit\": \"" << reported[i].unit
         << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return failed == 0 ? 0 : 1;
}
