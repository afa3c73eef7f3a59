// Reproduces Table 7: vNMSE of aggregated gradients, TopK vs TopKC on
// BERT-like gradients as a function of bits-per-coordinate b.
// TopKC wins because at equal b it aggregates more coordinates (J' > K —
// no index overhead) and chunk consensus exploits locality.
#include <iostream>

#include "bench/bench_util.h"
#include "core/aggregation_pipeline.h"
#include "core/topk_compressor.h"
#include "core/topkc_compressor.h"
#include "core/vnmse.h"

namespace {

using namespace gcs;
using namespace gcs::bench;

constexpr double kPaperTopk[] = {0.303, 0.185, 0.0865};
constexpr double kPaperTopkc[] = {0.273, 0.142, 0.0280};

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string csv_dir = flags.get_string("csv", "");
  const int rounds = static_cast<int>(flags.get_int("rounds", 4));
  flags.reject_unknown();
  print_header("Table 7", "vNMSE of TopK vs TopKC (BERT-like gradients)");

  const auto source = bert_like_gradients();
  const std::size_t d = source.dimension();
  const double bits[] = {0.5, 2.0, 8.0};

  AsciiTable table({"Compression", "b=0.5", "b=2", "b=8", "source"});

  {
    std::vector<std::string> row{"TopK"};
    for (double b : bits) {
      core::TopKConfig config;
      config.dimension = d;
      config.world_size = source.world_size();
      config.k = core::TopKConfig::k_for_bits(d, b);
      config.error_feedback = false;
      core::AggregationPipeline pipeline(core::make_topk_codec(config));
      row.push_back(
          format_sig(core::measure_vnmse(pipeline, source, rounds).mean,
                     3));
    }
    row.push_back("measured");
    table.add_row(std::move(row));
    table.add_row({"TopK", format_sig(kPaperTopk[0], 3),
                   format_sig(kPaperTopk[1], 3), format_sig(kPaperTopk[2], 3),
                   "paper"});
  }
  {
    std::vector<std::string> row{"TopKC"};
    for (double b : bits) {
      core::TopKCConfig config;
      config.dimension = d;
      config.world_size = source.world_size();
      config.chunk_size = core::TopKCConfig::default_chunk_size(b);
      config.num_top_chunks =
          core::TopKCConfig::j_for_bits(d, config.chunk_size, b);
      config.error_feedback = false;
      core::AggregationPipeline pipeline(core::make_topkc_codec(config));
      row.push_back(
          format_sig(core::measure_vnmse(pipeline, source, rounds).mean,
                     3));
    }
    row.push_back("measured");
    table.add_row(std::move(row));
    table.add_row({"TopKC", format_sig(kPaperTopkc[0], 3),
                   format_sig(kPaperTopkc[1], 3),
                   format_sig(kPaperTopkc[2], 3), "paper"});
  }

  std::cout << table.to_string() << '\n'
            << "Shape checks: TopKC <= TopK vNMSE at every b (J' > K at "
               "equal budget); both fall with b.\n";
  maybe_write_csv(csv_dir, "table7.csv", table.to_csv());
  write_table_json(table);
  return 0;
}
