// Example: distributed training of the language-model proxy with a chosen
// compression scheme, reporting the TTA curve (time measured at BERT-large
// scale on the modelled testbed).
//
//   ./build/examples/ddp_language_model --scheme=topkc:b=2 --rounds=2000
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "core/factory.h"
#include "sim/ddp_trainer.h"
#include "sim/tta.h"
#include "sim/workload.h"

int main(int argc, char** argv) {
  using namespace gcs;
  CliFlags flags(argc, argv);
  if (flags.help_requested()) {
    std::cout << "usage: ddp_language_model [--scheme=SPEC] [--rounds=N] "
                 "[--lr=X] [--workers=N] [--sched=KNOBS]\n"
                 "  SPEC examples: fp16 | topk:b=8 | topkc:b=2 | "
                 "thc:q=4:b=4:sat:partial | powersgd:r=4\n"
                 "  KNOBS defaults to 'buckets=layer:workers=2' (bucketed "
                 "backward-overlap\n  scheduler); pass --sched= for the "
                 "monolithic pipeline.\n";
    return 0;
  }

  train::MarkovLmDataset::Config data_config;
  data_config.vocab = 32;
  data_config.eval_samples = 1024;
  const train::MarkovLmDataset data(data_config);

  sim::DdpConfig config;
  config.scheme = flags.get_string("scheme", "topkc:b=2");
  // Route the run through the bucketed, multi-worker scheduler (value
  // path and cost charge both read the same spec knobs). A spec that
  // already carries scheduler knobs wins outright — appending defaults
  // would repeat a key, which the spec grammar rejects.
  const std::string sched =
      flags.get_string("sched", "buckets=layer:workers=2");
  if (!sched.empty() && !core::has_scheduler_knobs(config.scheme)) {
    config.scheme += ":" + sched;
  }
  config.world_size = static_cast<int>(flags.get_int("workers", 4));
  config.hidden = {64};
  config.learning_rate = flags.get_double("lr", 0.25);
  config.max_rounds = static_cast<int>(flags.get_int("rounds", 2000));
  flags.reject_unknown();
  config.eval_every = 25;
  config.rolling_window = 6;
  config.patience = 30;
  config.direction = train::MetricDirection::kLowerIsBetter;

  const auto workload = sim::make_bert_large_workload();
  const sim::CostModel cost;
  std::cout << "Training LM proxy with " << config.scheme << " on "
            << config.world_size << " workers (timed as " << workload.name
            << ", d=" << workload.dimension() << ")...\n";
  const auto result = sim::train_ddp(data, config, workload, cost);

  AsciiTable curve({"round", "time (h)", "perplexity (rolling)"});
  const std::size_t step = std::max<std::size_t>(result.curve.size() / 15, 1);
  for (std::size_t i = 0; i < result.curve.size(); i += step) {
    const auto& p = result.curve[i];
    curve.add_row({std::to_string(p.round),
                   format_fixed(p.time_s / 3600.0, 3),
                   format_sig(p.metric, 4)});
  }
  std::cout << curve.to_string() << '\n'
            << "scheme            : " << result.scheme << '\n'
            << "throughput        : " << format_sig(result.rounds_per_second, 3)
            << " rounds/s (simulated testbed)\n"
            << "bits/coordinate   : "
            << format_sig(result.mean_bits_per_coordinate, 3) << '\n'
            << "buckets/round     : " << result.pipeline_chunks << '\n'
            << "overlap hidden    : "
            << format_sig(result.overlap_saved_s_per_round * 1e3, 3)
            << " ms/round\n"
            << "best perplexity   : " << format_sig(result.best_metric, 4)
            << (result.converged ? " (early-stopped)" : " (round cap)")
            << '\n'
            << "simulated time    : "
            << format_fixed(result.simulated_seconds / 3600.0, 2) << " h\n";
  return 0;
}
