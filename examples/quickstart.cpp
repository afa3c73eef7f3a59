// Quickstart: compress-and-aggregate one set of gradients with every
// scheme, printing the measured bits-per-coordinate and compression error.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>
#include <span>
#include <vector>

#include "common/table.h"
#include "core/factory.h"
#include "core/synthetic_grad.h"
#include "core/vnmse.h"
#include "tensor/layout.h"

int main() {
  using namespace gcs;

  // 1. A cluster of 4 workers with ~260k-parameter transformer-shaped
  //    gradients (synthetic, seeded — see core/synthetic_grad.h).
  constexpr int kWorkers = 4;
  core::SyntheticGradConfig grad_config;
  grad_config.layout = make_transformer_like_layout(1 << 18);
  grad_config.world_size = kWorkers;
  grad_config.locality = 0.99;
  const core::SyntheticGradients source(grad_config);

  std::vector<std::vector<float>> grads;
  source.generate(/*round=*/0, grads);
  std::vector<std::span<const float>> views;
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());

  // 2. Build pipelines from spec strings (see core/factory.h for the
  //    grammar) and run one aggregation round each.
  const char* specs[] = {
      "fp32",        "fp16",
      "topk:b=2",    "topkc:b=2",
      "thc:q=4:b=4:sat:partial",
      "powersgd:r=4",
  };

  AsciiTable table({"scheme", "path", "bits/coord", "vNMSE"});
  std::vector<float> aggregated(source.dimension());
  for (const char* spec : specs) {
    auto pipeline = core::make_pipeline(spec, source.layout(), kWorkers);
    const core::RoundStats stats = pipeline.aggregate(
        std::span<const std::span<const float>>(views), aggregated,
        /*round=*/0);
    table.add_row(
        {pipeline.codec().name(), to_string(pipeline.codec().path()),
         format_sig(stats.bits_per_coordinate(source.dimension()), 3),
         format_sig(core::vnmse(
                        aggregated,
                        std::span<const std::span<const float>>(views)),
                    3)});
  }

  std::cout << "One aggregation round over " << kWorkers << " workers, d="
            << source.dimension() << ":\n\n"
            << table.to_string()
            << "\nLower b = less traffic; lower vNMSE = closer to the true "
               "gradient sum.\nThe paper's thesis: neither column alone "
               "predicts end-to-end utility — see the fig*_tta benches.\n";
  return 0;
}
