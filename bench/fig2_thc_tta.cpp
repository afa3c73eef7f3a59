// Reproduces Figure 2: TTA of THC's simple all-reduce adaptation (b=8,q=4,
// full rotation) against THC with saturation, saturation+partial rotation,
// and the aggressive b=q=2 configuration, plus the dense baselines.
#include <iostream>

#include "bench/bench_util.h"

namespace {

using namespace gcs;
using namespace gcs::bench;

const std::vector<std::string> kSchemes = {
    "fp16",
    "fp32",
    "thc:q=4:b=8:wide:full",     // THC Baseline (b=8, q=4)
    "thc:q=4:b=4:sat:full",      // + Saturation
    "thc:q=4:b=4:sat:partial",   // + Saturation + Partial Rotation
    "thc:q=2:b=2:sat:partial",   // aggressive b=q=2
};

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string csv_dir = flags.get_string("csv", "");
  flags.reject_unknown();
  print_header("Figure 2",
               "TTA of THC variants: saturation and partial rotation");

  {
    std::cout << "\n--- (a) BERT proxy ---\n";
    const auto data = lm_proxy_task();
    const auto results = run_tta_suite(data, kSchemes,
                                       sim::make_bert_large_workload(),
                                       nullptr, /*lower_is_better=*/true);
    std::cout << '\n' << sim::tabulate_curves(results, 10);
    maybe_write_csv(csv_dir, "fig2_bert.csv", sim::curves_to_csv(results));
  }
  {
    std::cout << "\n--- (b) VGG proxy ---\n";
    const auto data = classifier_proxy_task();
    const auto results = run_tta_suite(data, kSchemes,
                                       sim::make_vgg19_workload(), nullptr,
                                       /*lower_is_better=*/false);
    std::cout << '\n' << sim::tabulate_curves(results, 10);
    maybe_write_csv(csv_dir, "fig2_vgg.csv", sim::curves_to_csv(results));
  }

  std::cout << "\nShape checks (paper Fig. 2): adding saturation, then "
               "partial rotation, makes TTA converge progressively faster "
               "with indistinguishable final accuracy; b=q=2 improves "
               "throughput further but its TTA degrades on the LM task — "
               "again, throughput alone is not an end-to-end metric.\n";
  return 0;
}
