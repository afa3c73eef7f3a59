// Reproduces Table 6: TopK compression overhead — the percentage of round
// time spent in the computationally heavy components (selection /
// rearrangement / scatter-add), which stays ~10% across b.
#include <iostream>

#include "bench/bench_util.h"
#include "core/topkc_compressor.h"

namespace {

using namespace gcs;
using namespace gcs::bench;

constexpr double kPaperBert[] = {0.097, 0.125, 0.087};
constexpr double kPaperVgg[] = {0.119, 0.121, 0.082};

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string csv_dir = flags.get_string("csv", "");
  flags.reject_unknown();
  print_header("Table 6",
               "TopK compression overhead (% of round time in heavy "
               "components)");

  const sim::CostModel cost;
  const double bits[] = {0.5, 2.0, 8.0};
  AsciiTable table({"Task", "b=0.5", "b=2", "b=8", "source"});
  const sim::WorkloadSpec workloads[] = {sim::make_bert_large_workload(),
                                         sim::make_vgg19_workload()};
  const double* paper[] = {kPaperBert, kPaperVgg};
  for (int i = 0; i < 2; ++i) {
    const auto& w = workloads[i];
    std::vector<std::string> row{w.name};
    for (double b : bits) {
      row.push_back(
          format_percent(cost.topk_round(w, b).compress_fraction(), 1));
    }
    row.push_back("measured");
    table.add_row(std::move(row));
    table.add_row({w.name, format_percent(paper[i][0], 1),
                   format_percent(paper[i][1], 1),
                   format_percent(paper[i][2], 1), "paper"});
  }

  // Contrast: TopKC's compute overhead at the same budgets (the paper
  // calls it "negligible").
  AsciiTable contrast({"Task", "TopKC b=0.5", "TopKC b=2", "TopKC b=8"});
  for (const auto& w : workloads) {
    std::vector<std::string> row{w.name};
    for (double b : bits) {
      row.push_back(format_percent(
          cost.topkc_round(w, b, core::TopKCConfig::default_chunk_size(b))
              .compress_fraction(),
          2));
    }
    contrast.add_row(std::move(row));
  }

  std::cout << table.to_string() << '\n'
            << "TopKC overhead for contrast (negligible by design):\n"
            << contrast.to_string() << '\n'
            << "Shape checks: TopK overhead ~8-13% across b; TopKC well "
               "under 5%.\n";
  maybe_write_csv(csv_dir, "table6.csv", table.to_csv());
  write_table_json(table);
  return 0;
}
