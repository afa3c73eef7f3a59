// Reproduces Figure 1: TTA (rolling-averaged) of TopKC vs TopK vs the
// FP16/FP32 baselines, b in {0.5, 2, 8}, on both proxy tasks. The LM proxy
// reports perplexity timed as BERT-large; the classifier proxy reports
// top-1 accuracy timed as VGG19.
#include <iostream>

#include "bench/bench_util.h"

namespace {

using namespace gcs;
using namespace gcs::bench;

const std::vector<std::string> kSchemes = {
    "fp16",       "fp32",        "topkc:b=8",  "topk:b=8",
    "topkc:b=2",  "topk:b=2",    "topkc:b=0.5", "topk:b=0.5",
};

void summarize(const std::vector<sim::DdpResult>& results,
               train::MetricDirection direction, double target_slack) {
  // Utility vs the FP16 baseline (results[0]) at a target near the FP16
  // converged metric, per the paper's recommendation.
  const auto& fp16 = results[0];
  const double target =
      direction == train::MetricDirection::kHigherIsBetter
          ? fp16.best_metric - target_slack
          : fp16.best_metric + target_slack;
  std::cout << "\nUtility vs Baseline FP16 at target "
            << format_sig(target, 4) << " (TTA_fp16 / TTA_scheme; >1 means "
            << "the scheme genuinely helps):\n";
  AsciiTable table({"scheme", "TTA (h)", "utility", "final metric"});
  for (const auto& r : results) {
    const auto tta = sim::time_to_target(r, target, direction);
    const auto utility =
        sim::utility_vs_baseline(r, fp16, target, direction);
    table.add_row({r.scheme,
                   tta ? format_fixed(*tta / 3600.0, 2) : "never",
                   utility ? format_fixed(*utility, 2) : "-",
                   format_sig(r.final_metric, 4)});
  }
  std::cout << table.to_string();
  write_table_json(table);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string csv_dir = flags.get_string("csv", "");
  flags.reject_unknown();
  print_header("Figure 1",
               "TTA of TopKC vs TopK vs baselines (both tasks)");

  {
    std::cout << "\n--- (a) BERT proxy: LM perplexity, timed as BERT-large "
                 "---\n";
    const auto data = lm_proxy_task();
    const auto results = run_tta_suite(data, kSchemes,
                                       sim::make_bert_large_workload(),
                                       nullptr, /*lower_is_better=*/true);
    std::cout << '\n'
              << sim::tabulate_curves(results, 10);
    summarize(results, train::MetricDirection::kLowerIsBetter, 0.5);
    maybe_write_csv(csv_dir, "fig1_bert.csv", sim::curves_to_csv(results));
  }
  {
    std::cout << "\n--- (b) VGG proxy: top-1 accuracy, timed as VGG19 ---\n";
    const auto data = classifier_proxy_task();
    const auto results = run_tta_suite(data, kSchemes,
                                       sim::make_vgg19_workload(), nullptr,
                                       /*lower_is_better=*/false);
    std::cout << '\n'
              << sim::tabulate_curves(results, 10);
    summarize(results, train::MetricDirection::kHigherIsBetter, 0.02);
    maybe_write_csv(csv_dir, "fig1_vgg.csv", sim::curves_to_csv(results));
  }

  std::cout << "\nShape checks (paper Fig. 1): FP16 dominates FP32; TopKC "
               "reaches any given metric earlier than TopK at equal b; "
               "b=0.5 has the best throughput but the worst final "
               "metric — throughput alone misleads.\n";
  return 0;
}
