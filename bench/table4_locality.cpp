// Reproduces Table 4: vNMSE of TopKC vs TopKC with a random coordinate
// permutation (destroying spatial locality), BERT-like gradients,
// b in {0.5, 2, 8}. Demonstrates that TopKC's quality comes from locality.
#include <iostream>

#include "bench/bench_util.h"
#include "core/aggregation_pipeline.h"
#include "core/topkc_compressor.h"
#include "core/vnmse.h"

namespace {

using namespace gcs;
using namespace gcs::bench;

constexpr double kPaperTopkc[] = {0.273, 0.142, 0.0280};
constexpr double kPaperPerm[] = {0.398, 0.297, 0.123};

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string csv_dir = flags.get_string("csv", "");
  const int rounds = static_cast<int>(flags.get_int("rounds", 4));
  flags.reject_unknown();
  print_header("Table 4",
               "vNMSE of TopKC vs TopKC+random-permutation (BERT-like "
               "gradients)");

  const auto source = bert_like_gradients();
  const std::size_t d = source.dimension();

  AsciiTable table(
      {"Compression", "b=0.5", "b=2", "b=8", "source"});
  const double bits[] = {0.5, 2.0, 8.0};

  for (const bool permute : {false, true}) {
    std::vector<std::string> row;
    row.push_back(permute ? "TopKC Permutation" : "TopKC");
    for (double b : bits) {
      core::TopKCConfig config;
      config.dimension = d;
      config.world_size = source.world_size();
      config.chunk_size = core::TopKCConfig::default_chunk_size(b);
      config.num_top_chunks =
          core::TopKCConfig::j_for_bits(d, config.chunk_size, b);
      config.error_feedback = false;  // single-shot compression error
      config.permute = permute;
      core::AggregationPipeline pipeline(core::make_topkc_codec(config));
      const auto report = core::measure_vnmse(pipeline, source, rounds);
      row.push_back(format_sig(report.mean, 3));
    }
    row.push_back("measured");
    table.add_row(std::move(row));
    table.add_row({permute ? "TopKC Permutation" : "TopKC",
                   format_sig(permute ? kPaperPerm[0] : kPaperTopkc[0], 3),
                   format_sig(permute ? kPaperPerm[1] : kPaperTopkc[1], 3),
                   format_sig(permute ? kPaperPerm[2] : kPaperTopkc[2], 3),
                   "paper"});
  }
  std::cout << table.to_string() << '\n'
            << "Shape checks: permutation strictly increases vNMSE at "
               "every b; error falls as b grows.\n";
  maybe_write_csv(csv_dir, "table4.csv", table.to_csv());
  write_table_json(table);
  return 0;
}
