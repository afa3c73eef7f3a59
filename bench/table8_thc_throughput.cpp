// Reproduces Table 8: THC throughput with Saturation (b=q) across rotation
// modes {full, partial, none} against the wide-bit baseline (b=8, q=4,
// full rotation), plus measured saturation clip rates on synthetic
// gradients as supporting evidence for the "overflows are rare" claim.
#include <iostream>

#include "bench/bench_util.h"
#include "core/aggregation_pipeline.h"
#include "core/thc_compressor.h"
#include "core/vnmse.h"

namespace {

using namespace gcs;
using namespace gcs::bench;

struct PaperRow {
  const char* task;
  const char* config;
  double full, partial, none;  // rounds/s; <0 marks N/A
};

constexpr PaperRow kPaper[] = {
    {"BERT", "Sat b=q=2", 5.59, 5.75, 5.84},
    {"BERT", "Sat b=q=4", 5.37, 5.47, 5.54},
    {"BERT", "BL b=8,q=4", 4.32, -1, -1},
    {"VGG19", "Sat b=q=2", 19.9, 21.5, 22.7},
    {"VGG19", "Sat b=q=4", 18.4, 19.4, 20.3},
    {"VGG19", "BL b=8,q=4", 14.2, -1, -1},
};

std::string cell(double v) { return v < 0 ? "N/A" : format_sig(v, 3); }

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string csv_dir = flags.get_string("csv", "");
  flags.reject_unknown();
  print_header("Table 8",
               "THC throughput: saturation + rotation ablations vs the "
               "b=8 overflow-headroom baseline");

  const sim::CostModel cost;
  AsciiTable table({"Task", "#bits", "Full Rotation", "Partial Rotation",
                    "No Rotation", "source"});
  const sim::WorkloadSpec workloads[] = {sim::make_bert_large_workload(),
                                         sim::make_vgg19_workload()};
  using enum core::RotationMode;
  for (int i = 0; i < 2; ++i) {
    const auto& w = workloads[i];
    auto rps = [&](unsigned b, core::RotationMode mode) {
      return format_sig(
          cost.thc_round(w, b, cost.rotation_iters(w, mode))
              .rounds_per_second(),
          3);
    };
    table.add_row({w.name, "Sat b=q=2", rps(2, kFull), rps(2, kPartial),
                   rps(2, kNone), "measured"});
    table.add_row({w.name, "Sat b=q=4", rps(4, kFull), rps(4, kPartial),
                   rps(4, kNone), "measured"});
    table.add_row({w.name, "BL b=8,q=4", rps(8, kFull), "N/A", "N/A",
                   "measured"});
    for (int p = i * 3; p < i * 3 + 3; ++p) {
      table.add_row({kPaper[p].task, kPaper[p].config, cell(kPaper[p].full),
                     cell(kPaper[p].partial), cell(kPaper[p].none),
                     "paper"});
    }
  }
  std::cout << table.to_string() << '\n';

  // Value-path evidence: clip rate and vNMSE of saturated aggregation on
  // BERT-like gradients (the time model above is only half the story).
  std::cout << "Saturation behaviour on BERT-like gradients (d=2^20, n=4):\n";
  const auto source = bert_like_gradients();
  AsciiTable behaviour(
      {"config", "rotation", "clip rate", "vNMSE"});
  for (unsigned q : {2u, 4u}) {
    for (const auto mode : {core::RotationMode::kFull,
                            core::RotationMode::kPartial,
                            core::RotationMode::kNone}) {
      core::ThcConfig config;
      config.dimension = source.dimension();
      config.world_size = 4;
      config.q = q;
      config.b = q;
      config.saturation = true;
      config.rotation = mode;
      core::AggregationPipeline pipeline(core::make_thc_codec(config));
      std::vector<std::vector<float>> grads;
      source.generate(0, grads);
      std::vector<std::span<const float>> views;
      for (const auto& g : grads) views.emplace_back(g.data(), g.size());
      std::vector<float> out(source.dimension());
      const auto stats = pipeline.aggregate(
          std::span<const std::span<const float>>(views), out, 0);
      behaviour.add_row(
          {"Sat b=q=" + std::to_string(q), to_string(mode),
           format_percent(stats.sat.clip_rate(), 2),
           format_sig(
               core::vnmse(out,
                           std::span<const std::span<const float>>(views)),
               3)});
    }
  }
  std::cout << behaviour.to_string() << '\n'
            << "Shape checks: no-rotation > partial > full in throughput; "
               "Sat(b=q) beats BL(b=8) by ~25-30%; b=2 > b=4 in throughput "
               "(but see Figure 2 for its TTA collapse).\n";
  maybe_write_csv(csv_dir, "table8.csv", table.to_csv());
  write_table_json(table);
  return 0;
}
