// Example: distributed training of the image-classifier proxy, comparing
// a chosen compression scheme against the FP16 baseline head-to-head and
// reporting the end-to-end utility (the paper's headline metric).
//
//   ./build/examples/ddp_image_classifier --scheme=thc:q=4:b=4:sat:partial
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
    std::cout << "usage: ddp_image_classifier [--scheme=SPEC] [--rounds=N] "
                 "[--target=ACC] [--sched=KNOBS]\n"
                 "  KNOBS defaults to 'buckets=layer:workers=2' (the DDP-"
                 "style bucketed,\n  multi-worker scheduler); pass --sched= "
                 "to run the monolithic pipeline.\n";
    return 0;
  }

  train::GaussianMixtureDataset::Config data_config;
  data_config.features = 32;
  data_config.classes = 8;
  data_config.separation = 2.5;
  data_config.eval_samples = 1024;
  const train::GaussianMixtureDataset data(data_config);

  // Every run goes through the bucketed, multi-worker scheduler by
  // default: the factory builds the layer-bucket plan + encode pool for
  // the value path, and the cost model charges the matching
  // backward<->comm overlap (both from the same spec knobs).
  const std::string sched =
      flags.get_string("sched", "buckets=layer:workers=2");
  const int max_rounds = static_cast<int>(flags.get_int("rounds", 4000));
  const std::string scheme = flags.get_string("scheme", "topkc:b=2");
  // The default target depends on the baseline run, which must not start
  // before every flag is known good.
  const bool has_target = flags.has("target");
  const double target_flag = flags.get_double("target", 0.0);
  flags.reject_unknown();
  auto run = [&](std::string spec) {
    if (!sched.empty() && !core::has_scheduler_knobs(spec)) {
      spec += ":" + sched;
    }
    sim::DdpConfig config;
    config.scheme = spec;
    config.world_size = 4;
    config.hidden = {64};
    config.learning_rate = 0.1;
    config.max_rounds = max_rounds;
    config.eval_every = 25;
    config.rolling_window = 6;
    config.patience = 30;
    config.direction = train::MetricDirection::kHigherIsBetter;
    return sim::train_ddp(data, config, sim::make_vgg19_workload(),
                          sim::CostModel());
  };

  std::cout << "Training classifier proxy (timed as VGG19): FP16 baseline "
               "vs "
            << scheme << "...\n";
  const auto baseline = run("fp16");
  const auto candidate = run(scheme);

  const double target =
      has_target ? target_flag : baseline.best_metric - 0.02;
  AsciiTable table({"scheme", "rounds/s", "b", "final acc", "TTA (h)",
                    "buckets", "hidden ms"});
  for (const auto* r : {&baseline, &candidate}) {
    const auto tta = sim::time_to_target(
        *r, target, train::MetricDirection::kHigherIsBetter);
    table.add_row({r->scheme, format_sig(r->rounds_per_second, 3),
                   format_sig(r->mean_bits_per_coordinate, 3),
                   format_sig(r->final_metric, 4),
                   tta ? format_fixed(*tta / 3600.0, 3) : "never",
                   std::to_string(r->pipeline_chunks),
                   format_sig(r->overlap_saved_s_per_round * 1e3, 3)});
  }
  std::cout << table.to_string();

  const auto utility = sim::utility_vs_baseline(
      candidate, baseline, target,
      train::MetricDirection::kHigherIsBetter);
  std::cout << "\nTarget accuracy " << format_sig(target, 4) << ": ";
  if (utility) {
    std::cout << "utility = " << format_fixed(*utility, 2) << "x ("
              << (*utility > 1.0 ? "genuinely faster than the strong FP16 "
                                   "baseline"
                                 : "does NOT beat the FP16 baseline — the "
                                   "paper's warning in action")
              << ")\n";
  } else {
    std::cout << "target not reached by both runs — compare curves "
                 "directly.\n";
  }
  return 0;
}
