// Reproduces Table 2: baseline throughput (rounds/second) varying training
// precision {TF32, FP32} x communication precision {FP16, FP32} for
// BERT-large and VGG19 on the modelled 4xA100 / 100 Gbps testbed.
#include <iostream>

#include "bench/bench_util.h"

namespace {

using namespace gcs;
using namespace gcs::bench;

struct PaperRow {
  const char* task;
  double tf32_fp16, tf32_fp32, fp32_fp16, fp32_fp32;
};

constexpr PaperRow kPaper[] = {
    {"BERT", 3.32, 2.44, 3.17, 2.36},
    {"VGG19", 9.31, 6.59, 8.73, 6.37},
};

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string csv_dir = flags.get_string("csv", "");
  flags.reject_unknown();
  print_header("Table 2",
               "baseline throughput (rounds/s), training x communication "
               "precision");

  const sim::CostModel cost;
  AsciiTable table({"Task", "TF32+FP16", "TF32+FP32", "FP32+FP16",
                    "FP32+FP32", "source"});
  const sim::WorkloadSpec workloads[] = {sim::make_bert_large_workload(),
                                         sim::make_vgg19_workload()};
  for (int i = 0; i < 2; ++i) {
    const auto& w = workloads[i];
    auto rps = [&](Precision train, Precision comm) {
      return format_fixed(
          cost.baseline_round(w, train, comm).rounds_per_second(), 2);
    };
    table.add_row({w.name, rps(Precision::kTf32, Precision::kFp16),
                   rps(Precision::kTf32, Precision::kFp32),
                   rps(Precision::kFp32, Precision::kFp16),
                   rps(Precision::kFp32, Precision::kFp32), "measured"});
    const auto& p = kPaper[i];
    table.add_row({p.task, format_fixed(p.tf32_fp16, 2),
                   format_fixed(p.tf32_fp32, 2), format_fixed(p.fp32_fp16, 2),
                   format_fixed(p.fp32_fp32, 2), "paper"});
  }
  std::cout << table.to_string() << '\n'
            << "Shape checks: FP16 comm > FP32 comm throughput for every "
               "training precision; TF32 > FP32 training.\n";
  maybe_write_csv(csv_dir, "table2.csv", table.to_csv());
  write_table_json(table);
  return 0;
}
