// Reproduces Table 9: PowerSGD bits-per-coordinate and throughput for
// rank r in {1, 4, 16, 64}, with the orthogonalization-share profile the
// paper reports (39.7% / 47.4% of round time at r = 64).
#include <iostream>

#include "bench/bench_util.h"

namespace {

using namespace gcs;
using namespace gcs::bench;

struct PaperRow {
  double b, thr;
};

// Indexed [task][rank index] for r = 1, 4, 16, 64.
constexpr PaperRow kPaper[2][4] = {
    {{0.0797, 5.49}, {0.217, 4.89}, {0.764, 4.01}, {2.95, 3.03}},
    {{0.0242, 21.0}, {0.0872, 19.8}, {0.339, 15.2}, {1.36, 11.0}},
};

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string csv_dir = flags.get_string("csv", "");
  flags.reject_unknown();
  print_header("Table 9",
               "PowerSGD bits/coordinate and throughput vs rank r");

  const sim::CostModel cost;
  const std::size_t ranks[] = {1, 4, 16, 64};
  AsciiTable table({"Task", "r", "b (bits/coord)", "rounds/s",
                    "ortho share", "source"});
  const sim::WorkloadSpec workloads[] = {sim::make_bert_large_workload(),
                                         sim::make_vgg19_workload()};
  for (int i = 0; i < 2; ++i) {
    const auto& w = workloads[i];
    for (int k = 0; k < 4; ++k) {
      const auto r = ranks[k];
      const auto t = cost.powersgd_round(w, r);
      table.add_row({w.name, std::to_string(r),
                     format_sig(cost.powersgd_bits(w, r), 3),
                     format_sig(t.rounds_per_second(), 3),
                     format_percent(t.compress_s / t.total(), 1),
                     "measured"});
      table.add_row({w.name, std::to_string(r), format_sig(kPaper[i][k].b, 3),
                     format_sig(kPaper[i][k].thr, 3), "-", "paper"});
    }
  }
  std::cout << table.to_string() << '\n'
            << "Shape checks: b grows ~linearly in r yet stays far below "
               "FP16's 16 bits (up to ~47x less at r=16); throughput FALLS "
               "as r rises despite negligible communication — "
               "orthogonalization compute dominates (the paper's point "
               "that compression ratio alone says nothing about utility).\n";
  maybe_write_csv(csv_dir, "table9.csv", table.to_csv());
  write_table_json(table);
  return 0;
}
