// bench_e2e --selfcheck: the benchmark's own correctness gate.
//
//   1. The sample statistics return known answers, including the rule
//      that a tail percentile needs at least ten samples beyond it.
//   2. At a small dimension and world 2, every scheme produces the same
//      output bytes and wire bytes with and without the timing decorators
//      (serial chunked, pooled layer-bucket over TCP, and elastic training
//      paths), and on every traced round the timed calls tile the round.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "runner.h"

namespace gcs::bench::e2e {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok    " : "  FAIL  ") << what << '\n';
  if (!ok) ++failures;
}

bool near(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

void check_statistics() {
  std::cout << "sample statistics\n";
  expect(near(percentile({7, 1, 3, 9, 5}, 0.5), 5.0), "median of 5 samples");
  expect(near(percentile({4, 1, 3, 2}, 0.5), 2.5), "median of 4 samples");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(near(percentile(hundred, 0.9), 90.1), "p90 of 1..100");
  expect(tail_quantile(19) == 0.0 && tail_quantile(99) == 0.0,
         "no tail percentile below 100 samples");
  expect(tail_quantile(100) == 0.9 && tail_quantile(999) == 0.9,
         "p90 from 100 samples (10 beyond it)");
  expect(tail_quantile(1000) == 0.99, "p99 from 1000 samples");
}

void check_decorators(const WorkloadDef& w) {
  std::cout << w.name << '\n';
  RunOptions plain;
  plain.seed = 7;
  plain.max_cycles = 4;
  RunOptions traced = plain;
  traced.traced = true;
  traced.trace_all = true;
  const RunResult a = run_workload(w, plain);
  const RunResult b = run_workload(w, traced);
  for (const auto& f : a.failures) expect(false, "untraced: " + f);
  for (const auto& f : b.failures) expect(false, "traced: " + f);
  if (!a.failures.empty() || !b.failures.empty()) return;
  for (int s = 0; s < kNumSchemes; ++s) {
    const SchemeResult& x = a.schemes[static_cast<std::size_t>(s)];
    const SchemeResult& y = b.schemes[static_cast<std::size_t>(s)];
    const std::string k = kSchemes[static_cast<std::size_t>(s)].key;
    expect(!x.out_hash.empty() && x.out_hash == y.out_hash,
           k + ": outputs identical with and without decorators (" +
               std::to_string(x.out_hash.size()) + " rounds)");
    expect(x.wire_bytes == y.wire_bytes,
           k + ": wire bytes identical with and without decorators");
    const LayerTotals& l = y.layers;
    const std::size_t timed = y.round_s.size() + y.traced_round_s.size();
    expect(l.rounds == static_cast<std::uint64_t>(w.world) * timed &&
               y.round_s.empty(),
           k + ": every timed round traced on every rank, tiling held");
    expect(near(l.begin + l.stage + l.commit + l.finish + l.glue, l.round) &&
               near(l.encode_self + (l.encode_peer - l.pool_encode) +
                        l.send + l.recv + l.absorb + l.collective,
                    l.stage),
           k + ": parts add up to the round and the stage windows");
  }
}

}  // namespace

int run_selfcheck() {
  check_statistics();

  WorkloadDef serial;
  serial.name = "serial-uds-w2";
  serial.world = 2;
  serial.knobs = ":chunk=4096";
  serial.warmup_rounds = 2;
  serial.layout = make_transformer_like_layout(std::size_t{1} << 15);
  check_decorators(serial);

  WorkloadDef pooled = serial;
  pooled.name = "pooled-tcp-w2";
  pooled.tcp = true;
  pooled.knobs = ":buckets=layer:bucket=32768:workers=2";
  check_decorators(pooled);

  WorkloadDef training;
  training.name = "elastic-training-w2";
  training.world = 2;
  training.knobs = ":fabric=socket:elastic=on";
  training.training = true;
  training.task.dims = {64, 64, 32};
  training.task.batch_per_worker = 16;
  training.task.learning_rate = 0.25;
  training.task.momentum = 0.9;
  training.task.eval_every = 5;
  training.task.max_steps = 10;
  training.task.target_perplexity = 1e9;  // reached at the first eval
  check_decorators(training);

  std::cout << (failures == 0 ? "selfcheck passed\n" : "selfcheck FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace gcs::bench::e2e
