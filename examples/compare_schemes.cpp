// Example: sweep every compression family on one task and print the
// complete utility picture — throughput, bits, vNMSE, final metric, TTA —
// demonstrating the paper's point that no single column tells the story.
//
//   ./build/examples/compare_schemes [--rounds=3000]
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "sim/ddp_trainer.h"
#include "sim/tta.h"
#include "sim/workload.h"

int main(int argc, char** argv) {
  using namespace gcs;
  CliFlags flags(argc, argv);
  const int max_rounds = static_cast<int>(flags.get_int("rounds", 3000));
  flags.reject_unknown();

  train::GaussianMixtureDataset::Config data_config;
  data_config.features = 32;
  data_config.classes = 8;
  data_config.separation = 2.5;
  data_config.eval_samples = 1024;
  const train::GaussianMixtureDataset data(data_config);

  const char* schemes[] = {
      "fp16",
      "fp32",
      "topk:b=2",
      "topkc:b=2",
      "thc:q=4:b=4:sat:partial",
      "thc:q=2:b=2:sat:partial",
      "powersgd:r=4",
      "powersgd:r=1",
  };

  const auto workload = sim::make_vgg19_workload();
  const sim::CostModel cost;
  std::vector<sim::DdpResult> results;
  for (const char* scheme : schemes) {
    sim::DdpConfig config;
    config.scheme = scheme;
    config.world_size = 4;
    config.hidden = {64};
    config.learning_rate = 0.1;
    config.max_rounds = max_rounds;
    config.eval_every = 25;
    config.rolling_window = 6;
    config.patience = 30;
    config.direction = train::MetricDirection::kHigherIsBetter;
    std::cout << "running " << scheme << "...\n";
    results.push_back(sim::train_ddp(data, config, workload, cost));
  }

  const auto& fp16 = results[0];
  const double target = fp16.best_metric - 0.02;
  AsciiTable table({"scheme", "rounds/s", "b", "vNMSE", "final acc",
                    "TTA (h)", "utility vs FP16"});
  for (const auto& r : results) {
    const auto tta = sim::time_to_target(
        r, target, train::MetricDirection::kHigherIsBetter);
    const auto utility = sim::utility_vs_baseline(
        r, fp16, target, train::MetricDirection::kHigherIsBetter);
    table.add_row({r.scheme, format_sig(r.rounds_per_second, 3),
                   format_sig(r.mean_bits_per_coordinate, 3),
                   format_sig(r.mean_vnmse, 2),
                   format_sig(r.final_metric, 4),
                   tta ? format_fixed(*tta / 3600.0, 3) : "never",
                   utility ? format_fixed(*utility, 2) : "-"});
  }
  std::cout << '\n'
            << table.to_string()
            << "\nReading guide (the paper's evaluation methodology):\n"
            << "  * rounds/s alone ranks the aggressive schemes first;\n"
            << "  * vNMSE alone ranks the gentle schemes first;\n"
            << "  * only the TTA/utility columns (vs the STRONG FP16\n"
            << "    baseline) measure what a practitioner gets.\n";
  return 0;
}
