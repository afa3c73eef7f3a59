#include "sim/ddp_trainer.h"

#include <cmath>

#include "common/check.h"
#include "common/stats.h"
#include "core/factory.h"
#include "core/vnmse.h"
#include "train/mlp.h"
#include "train/optimizer.h"

namespace gcs::sim {

DdpResult train_ddp(const train::Dataset& data, const DdpConfig& config,
                    const WorkloadSpec& workload, const CostModel& cost) {
  GCS_CHECK(config.world_size >= 1);
  GCS_CHECK(config.max_rounds >= 1);

  // Shared model (all DDP replicas are identical, so one instance
  // suffices) and per-worker gradient buffers.
  std::vector<std::size_t> dims;
  dims.push_back(data.feature_dim());
  for (auto h : config.hidden) dims.push_back(h);
  dims.push_back(data.num_classes());
  train::MlpModel model(dims, config.seed);
  const std::size_t d = model.dimension();

  auto pipeline =
      core::make_pipeline(config.scheme, model.layout(), config.world_size);
  train::SgdMomentum optimizer(d, config.learning_rate, config.momentum);
  train::StepDecaySchedule lr_schedule(config.learning_rate, config.lr_gamma,
                                       config.lr_decay_every);
  train::EarlyStopping stopper(config.direction, config.patience,
                               config.min_delta);
  RollingAverage rolling(config.rolling_window);

  const RoundTime round_time = cost.round_for_spec(workload, config.scheme);
  const bool lower_better =
      config.direction == train::MetricDirection::kLowerIsBetter;

  const auto n = static_cast<std::size_t>(config.world_size);
  std::vector<std::vector<float>> grads(n, std::vector<float>(d));
  std::vector<std::span<const float>> views(n);
  std::vector<float> aggregated(d);
  train::Batch batch;

  DdpResult result;
  result.scheme = pipeline.codec().name();
  RunningStats bits_stats;
  RunningStats vnmse_stats;
  double clock = 0.0;
  int rounds_after_converge = 0;

  for (int round = 0; round < config.max_rounds; ++round) {
    for (std::size_t w = 0; w < n; ++w) {
      data.sample_batch(static_cast<int>(w),
                        static_cast<std::uint64_t>(round),
                        config.batch_per_worker, batch);
      model.forward_backward(batch, grads[w]);
      views[w] = std::span<const float>(grads[w]);
    }
    const core::RoundStats round_stats = pipeline.aggregate(
        std::span<const std::span<const float>>(views), aggregated,
        static_cast<std::uint64_t>(round));
    bits_stats.add(round_stats.bits_per_coordinate(d));
    vnmse_stats.add(core::vnmse(
        aggregated, std::span<const std::span<const float>>(views)));

    // Mean gradient -> shared optimizer step.
    const float inv_n = 1.0f / static_cast<float>(n);
    for (auto& g : aggregated) g *= inv_n;
    if (config.lr_decay_every != 0) {
      optimizer.set_learning_rate(
          lr_schedule.at(static_cast<std::size_t>(round)));
    }
    optimizer.step(model.params(), aggregated);

    clock += round_time.total();
    result.rounds_run = round + 1;

    if ((round + 1) % config.eval_every == 0) {
      const train::EvalResult eval = model.evaluate(data.eval_set());
      const double metric =
          lower_better ? eval.perplexity() : eval.accuracy;
      rolling.add(metric);
      TtaPoint point;
      point.round = round + 1;
      point.time_s = clock;
      point.metric = rolling.value();
      point.raw_metric = metric;
      result.curve.push_back(point);
      if (!stopper.converged()) stopper.update(rolling.value());
    }
    if (stopper.converged()) {
      if (++rounds_after_converge >= config.post_converge_rounds) break;
    }
  }

  result.converged = stopper.converged();
  result.best_metric = stopper.best();
  result.final_metric = result.curve.empty() ? 0.0 : result.curve.back().metric;
  result.simulated_seconds = clock;
  result.rounds_per_second = round_time.rounds_per_second();
  result.overlap_saved_s_per_round = round_time.overlap_saved_s;
  result.pipeline_chunks = round_time.chunks;
  result.mean_bits_per_coordinate = bits_stats.mean();
  result.mean_vnmse = vnmse_stats.mean();
  return result;
}

}  // namespace gcs::sim
