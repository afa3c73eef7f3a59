// Reproduces Table 5: training throughput (rounds/s) of TopK (all-gather)
// vs TopKC (all-reduce) at b in {0.5, 2, 8} bits/coordinate for BERT-large
// and VGG19 under the calibrated testbed model.
#include <iostream>

#include "bench/bench_util.h"
#include "core/topkc_compressor.h"

namespace {

using namespace gcs;
using namespace gcs::bench;

struct PaperRows {
  const char* task;
  double topk[3];   // b = 0.5, 2, 8
  double topkc[3];
};

constexpr PaperRows kPaper[] = {
    {"BERT-large", {5.53, 3.87, 2.50}, {6.06, 6.02, 4.78}},
    {"VGG19", {21.5, 13.9, 7.60}, {24.9, 22.2, 15.2}},
};

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string csv_dir = flags.get_string("csv", "");
  flags.reject_unknown();
  print_header("Table 5",
               "throughput (rounds/s): TopK (all-gather) vs TopKC "
               "(all-reduce)");

  const sim::CostModel cost;
  const double bits[] = {0.5, 2.0, 8.0};
  AsciiTable table(
      {"Task", "Compression", "b=0.5", "b=2", "b=8", "source"});
  const sim::WorkloadSpec workloads[] = {sim::make_bert_large_workload(),
                                         sim::make_vgg19_workload()};
  for (int i = 0; i < 2; ++i) {
    const auto& w = workloads[i];
    std::vector<std::string> topk_row{w.name, "TopK"};
    std::vector<std::string> topkc_row{w.name, "TopKC"};
    for (double b : bits) {
      topk_row.push_back(
          format_sig(cost.topk_round(w, b).rounds_per_second(), 3));
      topkc_row.push_back(format_sig(
          cost.topkc_round(w, b, core::TopKCConfig::default_chunk_size(b))
              .rounds_per_second(),
          3));
    }
    topk_row.push_back("measured");
    topkc_row.push_back("measured");
    table.add_row(std::move(topk_row));
    table.add_row({kPaper[i].task, "TopK", format_sig(kPaper[i].topk[0], 3),
                   format_sig(kPaper[i].topk[1], 3),
                   format_sig(kPaper[i].topk[2], 3), "paper"});
    table.add_row(std::move(topkc_row));
    table.add_row({kPaper[i].task, "TopKC", format_sig(kPaper[i].topkc[0], 3),
                   format_sig(kPaper[i].topkc[1], 3),
                   format_sig(kPaper[i].topkc[2], 3), "paper"});
  }
  std::cout << table.to_string() << '\n'
            << "Shape checks: TopKC > TopK at every b (up to ~2x at b=8); "
               "throughput decreases with b; the TopKC advantage widens "
               "as b grows because all-gather traffic scales with n.\n";
  maybe_write_csv(csv_dir, "table5.csv", table.to_csv());
  write_table_json(table);
  return 0;
}
