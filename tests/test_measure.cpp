// Tests for the measurement & calibration subsystem (src/measure/ +
// DESIGN.md "Measurement layer"):
//   * tracing transparency — tracing off or on has zero impact on values
//     and wire bytes for all five schemes (the acceptance claim (a));
//   * span coverage — a traced round records every phase with sane
//     bounds, and the measured wire volume agrees with the transports'
//     byte meters;
//   * link probing — RTT/bandwidth estimates are positive and the
//     measured incast penalty is consumed by netsim in place of the
//     assumed analytic constant (acceptance claim (c));
//   * calibration — the least-squares fit reduces mean absolute error
//     against measured round time relative to the uncalibrated cost
//     model on a multi-scheme sweep (acceptance claim (b)).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "comm/fabric.h"
#include "comm/group.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "core/synthetic_grad.h"
#include "measure/calibrator.h"
#include "measure/link_prober.h"
#include "measure/trace.h"
#include "measure/trace_merge.h"
#include "netsim/network_model.h"
#include "sim/cost_model.h"
#include "spmd_ranks.h"
#include "tensor/layout.h"

namespace gcs::measure {
namespace {

constexpr const char* kAllSchemes[] = {"fp16", "topk:b=8", "topkc:b=8",
                                       "thc:q=4:b=4:sat:partial",
                                       "powersgd:r=2"};

std::vector<std::vector<float>> make_grads(std::size_t dim, int world,
                                           std::uint64_t round) {
  return core::seeded_worker_grads(dim, world, /*seed=*/991, round);
}

struct TracedRun {
  std::vector<std::vector<float>> outputs;  ///< rank 0's, per round
  std::vector<std::uint64_t> wire_sent;     ///< per rank, summed rounds
  std::vector<std::uint64_t> wire_received; ///< per rank, summed rounds
  std::vector<RoundTrace> traces;           ///< rank 0's, per round (traced)
};

/// Runs `rounds` rounds of one spec as SPMD ranks over comm::Fabric from
/// fresh codecs, optionally tracing rank 0.
TracedRun run_rounds(const std::string& spec, const ModelLayout& layout,
                     int world, int rounds, std::size_t chunk_bytes,
                     bool traced) {
  TraceRecorder recorder;
  core::PipelineConfig pc =
      core::parse_pipeline_config(spec, layout, world);
  if (chunk_bytes != 0) pc.chunk_bytes = chunk_bytes;
  std::vector<core::AggregationPipeline> pipelines;
  for (int rank = 0; rank < world; ++rank) {
    core::PipelineConfig rank_pc = pc;
    if (traced && rank == 0) rank_pc.trace = &recorder;
    pipelines.emplace_back(core::make_scheme_codec(spec, layout, world),
                           rank_pc);
  }
  test::RoundGrads grads;
  for (int r = 0; r < rounds; ++r) {
    grads.push_back(
        make_grads(layout.total_size(), world, static_cast<std::uint64_t>(r)));
  }
  test::SpmdRun spmd =
      test::run_spmd(test::Substrate::kFabric, pipelines, grads);

  TracedRun run;
  run.outputs = std::move(spmd.outputs[0]);
  run.wire_sent.assign(static_cast<std::size_t>(world), 0);
  run.wire_received.assign(static_cast<std::size_t>(world), 0);
  for (int r = 0; r < rounds; ++r) {
    for (int rank = 0; rank < world; ++rank) {
      const auto ri = static_cast<std::size_t>(rank);
      run.wire_sent[ri] += spmd.sent[static_cast<std::size_t>(r)][ri];
      run.wire_received[ri] += spmd.received[static_cast<std::size_t>(r)][ri];
    }
  }
  for (auto& trace : spmd.traces) trace.scheme = spec;
  run.traces = std::move(spmd.traces);
  return run;
}

TEST(Tracing, ZeroWireAndValueImpactOnAllSchemes) {
  // Acceptance (a): the same rounds with and without tracing, from fresh
  // codecs — bit-identical aggregates, identical per-rank wire meters.
  const auto layout = make_transformer_like_layout(4096);
  for (const char* spec : kAllSchemes) {
    const auto plain = run_rounds(spec, layout, 4, 2, 1024, false);
    const auto traced = run_rounds(spec, layout, 4, 2, 1024, true);
    ASSERT_EQ(plain.outputs.size(), traced.outputs.size());
    for (std::size_t r = 0; r < plain.outputs.size(); ++r) {
      ASSERT_EQ(plain.outputs[r].size(), traced.outputs[r].size());
      EXPECT_EQ(std::memcmp(plain.outputs[r].data(),
                            traced.outputs[r].data(),
                            plain.outputs[r].size() * sizeof(float)),
                0)
          << spec << " round " << r;
    }
    EXPECT_EQ(plain.wire_sent, traced.wire_sent) << spec;
    // And the traced run actually observed the rounds.
    ASSERT_FALSE(traced.traces.empty()) << spec;
    EXPECT_GT(traced.traces[0].spans.size(), 0u) << spec;
  }
}

TEST(Tracing, RecordsEveryPhaseWithSaneBounds) {
  const auto layout = make_transformer_like_layout(4096);
  const auto run = run_rounds("topkc:b=8", layout, 4, 1, 1024, true);
  ASSERT_EQ(run.traces.size(), 1u);
  const RoundTrace& trace = run.traces[0];

  EXPECT_EQ(trace.phase_count(Phase::kRound), 1u);
  // TopKC has two wire stages (chunk-norms consensus + chunk-values).
  EXPECT_EQ(trace.phase_count(Phase::kStage), 2u);
  EXPECT_EQ(trace.phase_count(Phase::kEncode), 2u);  // rank 0's own
  EXPECT_EQ(trace.phase_count(Phase::kReduce), 2u);
  EXPECT_EQ(trace.phase_count(Phase::kDecode), 1u);
  EXPECT_GT(trace.phase_count(Phase::kSend), 0u);
  EXPECT_GT(trace.phase_count(Phase::kRecv), 0u);

  EXPECT_GT(trace.round_s(), 0.0);
  for (const auto& span : trace.spans) {
    EXPECT_GE(span.end_s, span.start_s);
    EXPECT_GE(span.start_s, 0.0);
    if (span.phase == Phase::kSend || span.phase == Phase::kRecv) {
      EXPECT_EQ(span.rank, 0) << "a peer's wire span reached rank 0's trace";
    }
  }
  // The traced wire volume is the metered wire volume: rank 0's spans
  // carry the same payload bytes its transport counters accumulate.
  EXPECT_EQ(trace.phase_bytes(Phase::kSend), run.wire_sent[0]);
  EXPECT_EQ(trace.phase_bytes(Phase::kRecv), run.wire_received[0]);

  RankTrace rank_trace;
  rank_trace.traces.push_back(trace);
  const std::string json = rank_trace_to_json(rank_trace);
  EXPECT_NE(json.find("\"phase\": \"send\""), std::string::npos);
  EXPECT_NE(json.find("\"scheme\": \"topkc:b=8\""), std::string::npos);
}

TEST(Tracing, EncodeWorkerPoolSpansAreRecorded) {
  // The local oracle encodes on pool threads; their spans must land in
  // the recorder (it is shared across threads).
  const auto layout = make_transformer_like_layout(4096);
  TraceRecorder recorder;
  core::PipelineConfig pc;
  pc.encode_workers = 2;
  pc.chunk_bytes = 2048;
  pc.trace = &recorder;
  core::AggregationPipeline pipeline(
      core::make_scheme_codec("topkc:b=8", layout, 4), pc);
  const auto grads = make_grads(layout.total_size(), 4, 0);
  std::vector<std::span<const float>> views;
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());
  std::vector<float> out(layout.total_size());
  pipeline.aggregate(std::span<const std::span<const float>>(views), out, 0);
  const RoundTrace trace = recorder.take(0, "topkc:b=8", "local");
  EXPECT_EQ(trace.phase_count(Phase::kEncode), 2u * 4u);
}

TEST(LinkProber, RttAndBandwidthArePositive) {
  comm::Fabric fabric(4);
  std::vector<LinkEstimate> estimates(4);
  ProbeConfig config;
  config.rtt_iters = 16;
  config.bandwidth_bytes = 1 << 18;
  config.bandwidth_iters = 2;
  comm::run_workers(fabric, [&](comm::Communicator& comm) {
    estimates[static_cast<std::size_t>(comm.rank())] =
        probe_link(comm, 0, 1, config);
  });
  EXPECT_GT(estimates[0].rtt_s, 0.0);
  EXPECT_GT(estimates[0].bandwidth_bytes_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(estimates[0].latency_s, estimates[0].rtt_s / 2.0);
  // The estimate is broadcast: every rank returns the measuring rank's
  // numbers.
  for (int r = 1; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(estimates[static_cast<std::size_t>(r)].rtt_s,
                     estimates[0].rtt_s);
    EXPECT_DOUBLE_EQ(
        estimates[static_cast<std::size_t>(r)].bandwidth_bytes_per_sec,
        estimates[0].bandwidth_bytes_per_sec);
  }
}

TEST(LinkProber, MeasuredIncastPenaltyIsConsumedByNetsim) {
  // Acceptance (c): the probe yields a measured factor and netsim charges
  // with it in place of the assumed analytic constant.
  comm::Fabric fabric(4);
  std::vector<IncastEstimate> estimates(4);
  ProbeConfig config;
  config.incast_bytes = 1 << 16;
  comm::run_workers(fabric, [&](comm::Communicator& comm) {
    estimates[static_cast<std::size_t>(comm.rank())] =
        probe_incast(comm, 0, config);
  });
  const IncastEstimate& est = estimates[0];
  EXPECT_EQ(est.senders, 3);
  EXPECT_GT(est.penalty, 0.0);
  EXPECT_GT(est.serialized_s, 0.0);
  EXPECT_GT(est.concurrent_s, 0.0);
  for (int r = 1; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(estimates[static_cast<std::size_t>(r)].penalty,
                     est.penalty);
  }

  // Consumption: a model with the measured factor installed charges PS
  // aggregation with it — not with the analytic curve.
  netsim::NetworkModel assumed;
  netsim::NetworkModel measured;
  measured.set_measured_incast_penalty(est.penalty);
  EXPECT_FALSE(assumed.has_measured_incast());
  EXPECT_TRUE(measured.has_measured_incast());
  EXPECT_DOUBLE_EQ(measured.incast(3), est.penalty);
  EXPECT_DOUBLE_EQ(assumed.incast(3), netsim::incast_penalty(3));

  const double payload = 1e6;
  const auto ps_time = [&](const netsim::NetworkModel& m, double penalty) {
    const auto& link = m.link();
    const double bw = link.bandwidth_bytes_per_sec * 0.50;  // eff_.ps
    const double gather =
        link.latency_sec + 3.0 * payload * penalty / bw;
    const double bcast = link.latency_sec + 3.0 * payload / bw;
    return gather + bcast;
  };
  EXPECT_NEAR(measured.ps_aggregate_time(4, payload),
              ps_time(measured, est.penalty), 1e-12);
  EXPECT_NEAR(assumed.ps_aggregate_time(4, payload),
              ps_time(assumed, netsim::incast_penalty(3)), 1e-12);
  // probed_network_model packages the same consumption.
  const auto probed = probed_network_model(LinkEstimate{}, est);
  EXPECT_TRUE(probed.has_measured_incast());
  EXPECT_DOUBLE_EQ(probed.incast(3), est.penalty);
}

TEST(Calibrator, FitReducesMaeVsUncalibratedModel) {
  // Acceptance (b): on a >= 6-scenario sweep of SPMD rounds, the fitted
  // charges track measured round time with lower mean absolute error
  // than the uncalibrated (paper-testbed) cost model. The uncalibrated
  // model charges a 100 Gbps cluster with a 10 ms fixed overhead; the
  // in-process fabric is orders of magnitude away, so the margin is
  // structural, not a timing accident.
  const std::size_t dim = 8192;
  const auto layout = make_transformer_like_layout(dim);
  const int world = 4;
  const int rounds = 3;  // round 0 warmup, 2 timed samples per scenario
  struct Scenario {
    const char* spec;
    std::size_t chunk;
  };
  const Scenario sweep[] = {
      {"fp16", 0},          {"fp16", 4096},
      {"topk:b=8", 0},      {"topkc:b=8", 0},
      {"topkc:b=8", 4096},  {"thc:q=4:b=4:sat:partial", 0},
      {"thc:q=4:b=4:sat:partial", 4096}, {"powersgd:r=2", 0},
  };

  sim::WorkloadSpec workload;
  workload.name = "measure-sweep";
  workload.layout = layout;
  workload.fp32_compute_seconds = 0.0;  // the rounds run no fwd/bwd
  const sim::CostModel uncalibrated(sim::CostConstants{},
                                    netsim::NetworkModel{}, world);

  Calibrator calibrator;
  std::vector<ScenarioSample> medians;
  std::vector<double> uncal_charges;
  for (const auto& scenario : sweep) {
    const auto run = run_rounds(scenario.spec, layout, world, rounds,
                                scenario.chunk, true);
    std::vector<ScenarioSample> samples;
    const std::string kind =
        std::string(scenario.spec)
            .substr(0, std::string(scenario.spec).find(':'));
    for (std::size_t r = 1; r < run.traces.size(); ++r) {  // skip warmup
      samples.push_back(sample_from_trace(
          run.traces[r], kind, dim,
          run.traces[r].phase_count(Phase::kStage)));
      calibrator.add(samples.back());
    }
    // Median-of-two = the faster (less noisy) round.
    medians.push_back(samples[0].measured_round_s <
                              samples[1].measured_round_s
                          ? samples[0]
                          : samples[1]);
    std::string spec = scenario.spec;
    if (scenario.chunk != 0) {
      spec += ":chunk=" + std::to_string(scenario.chunk);
    }
    uncal_charges.push_back(
        uncalibrated.round_for_spec(workload, spec).total());
  }

  ASSERT_GE(medians.size(), 6u);
  const CalibratedCostModel fitted = calibrator.fit();

  double mae_uncal = 0.0;
  for (std::size_t i = 0; i < medians.size(); ++i) {
    mae_uncal +=
        std::abs(uncal_charges[i] - medians[i].measured_round_s);
  }
  mae_uncal /= static_cast<double>(medians.size());
  const double mae_cal = fitted.mean_abs_error(
      std::span<const ScenarioSample>(medians));

  EXPECT_LT(mae_cal, mae_uncal)
      << "calibrated MAE " << mae_cal << " s vs uncalibrated " << mae_uncal
      << " s";
  // The fitted charge is a real prediction, not a constant: it must vary
  // across scenarios (the features differ by 4x in wire volume).
  double lo = 1e9, hi = 0.0;
  for (const auto& s : medians) {
    const double c = fitted.charged_round_s(s);
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_GT(hi, lo);
}

TEST(Calibrator, FitCoefficientsAreNonNegative) {
  // Round time that falls as messages grow: planted with a negative
  // per-message cost, so the unconstrained least-squares fit reproduces
  // alpha < 0 exactly. Timing noise on a real sweep produces the same
  // shape. No coefficient may come out negative.
  const double fixed = 5e-3, alpha = -4e-5, beta = 4e-10, gamma = 5e-9;
  Calibrator calibrator;
  for (int i = 1; i <= 8; ++i) {
    ScenarioSample s;
    s.scheme_kind = i % 2 == 0 ? "fp16" : "topkc";
    s.messages = 10.0 * i;
    s.wire_bytes = 30000.0 * (9 - i) * (i % 3 + 1);
    s.coordinates = 8192.0 * (i % 4 + 1);
    s.measured_round_s = fixed + alpha * s.messages +
                         beta * s.wire_bytes + gamma * s.coordinates;
    ASSERT_GT(s.measured_round_s, 0.0);
    calibrator.add(s);
  }
  const CalibratedCostModel fitted = calibrator.fit();
  EXPECT_GE(fitted.fixed_s(), 0.0);
  EXPECT_GE(fitted.alpha_s(), 0.0);
  EXPECT_GE(fitted.beta_s_per_byte(), 0.0);
  for (const auto& kind : fitted.scheme_kinds()) {
    EXPECT_GE(fitted.compute_per_coord(kind), 0.0) << kind;
  }
  // Still a fit, not a zero model: the charge follows the data's spread.
  double lo = 1e9, hi = 0.0;
  for (const auto& s : calibrator.samples()) {
    lo = std::min(lo, fitted.charged_round_s(s));
    hi = std::max(hi, fitted.charged_round_s(s));
  }
  EXPECT_GT(hi, lo);
}

TEST(Calibrator, RejectsUnderdeterminedFit) {
  Calibrator calibrator;
  ScenarioSample s;
  s.scheme_kind = "fp16";
  s.messages = 10;
  s.wire_bytes = 1000;
  s.coordinates = 100;
  s.measured_round_s = 1e-3;
  calibrator.add(s);
  calibrator.add(s);
  EXPECT_THROW((void)calibrator.fit(), Error);  // 2 samples, 4 params
}

TEST(Calibrator, UnderdeterminedFitErrorIsClearAndCounted) {
  // Fewer traced rounds than coefficients must exit with an error that
  // names both counts — "widen the sweep" is actionable, a garbage fit
  // is not. Every additional scheme kind raises the parameter count
  // (3 + #kinds), so the boundary moves with the sweep's diversity.
  Calibrator calibrator;
  for (int i = 0; i < 4; ++i) {
    ScenarioSample s;
    s.scheme_kind = i % 2 == 0 ? "fp16" : "topkc";  // 2 kinds -> 5 params
    s.messages = 10.0 + i;
    s.wire_bytes = 1000.0 * (i + 1);
    s.coordinates = 100.0 * (i + 1);
    s.measured_round_s = 1e-3 * (i + 1);
    calibrator.add(s);
  }
  try {
    (void)calibrator.fit();
    FAIL() << "4 samples cannot fit 5 parameters";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4 sample(s)"), std::string::npos) << what;
    EXPECT_NE(what.find("5 parameters"), std::string::npos) << what;
    EXPECT_NE(what.find("widen the sweep"), std::string::npos) << what;
  }
  // One more independent sample crosses the boundary and the fit runs.
  ScenarioSample s;
  s.scheme_kind = "fp16";
  s.messages = 99.0;
  s.wire_bytes = 123456.0;
  s.coordinates = 77.0;
  s.measured_round_s = 5e-3;
  calibrator.add(s);
  EXPECT_NO_THROW((void)calibrator.fit());
}

TEST(LinkProber, HandlesZeroByteAndOneByteProbes) {
  // Degenerate payloads are legal probe configurations: a zero-byte bulk
  // transfer measures pure per-message overhead (bandwidth reported as
  // 0, which probed_network_model treats as "keep the default") and
  // 1-byte payloads are the smallest timed transfer. Neither may crash,
  // divide by zero, or hang — and the incast probe's penalty must fall
  // back to a sane value when the flows carry nothing.
  for (const std::size_t bytes : {std::size_t{0}, std::size_t{1}}) {
    comm::Fabric fabric(3);
    std::vector<LinkEstimate> links(3);
    std::vector<IncastEstimate> incasts(3);
    ProbeConfig config;
    config.rtt_iters = 4;
    config.bandwidth_iters = 2;
    config.bandwidth_bytes = bytes;
    config.incast_bytes = bytes;
    config.warmup_iters = 1;
    comm::run_workers(fabric, [&](comm::Communicator& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      links[rank] = probe_link(comm, 0, 1, config);
      incasts[rank] = probe_incast(comm, 0, config);
    });
    EXPECT_GT(links[0].rtt_s, 0.0) << bytes;
    if (bytes == 0) {
      EXPECT_EQ(links[0].bandwidth_bytes_per_sec, 0.0);
      // Zero-bandwidth estimates must not poison the packaged model.
      const auto model = probed_network_model(links[0], incasts[0]);
      EXPECT_GT(model.link().bandwidth_bytes_per_sec, 0.0);
    } else {
      EXPECT_GT(links[0].bandwidth_bytes_per_sec, 0.0);
    }
    EXPECT_GT(incasts[0].penalty, 0.0) << bytes;
    EXPECT_EQ(incasts[0].bytes_per_sender, bytes);
    for (int r = 1; r < 3; ++r) {
      EXPECT_DOUBLE_EQ(links[static_cast<std::size_t>(r)].rtt_s,
                       links[0].rtt_s)
          << bytes;
    }
  }
}

TEST(Calibrator, RecoversPlantedCoefficients) {
  // Synthetic ground truth: samples generated from known (fixed, alpha,
  // beta, gamma) must be recovered to float-ish precision — the normal
  // equations and the column scaling are exact on noiseless data.
  const double fixed = 2e-4, alpha = 3e-6, beta = 4e-10, gamma = 5e-9;
  Calibrator calibrator;
  for (int i = 1; i <= 8; ++i) {
    ScenarioSample s;
    s.scheme_kind = i % 2 == 0 ? "fp16" : "topkc";
    s.messages = 10.0 * i;
    s.wire_bytes = 30000.0 * i * (i % 3 + 1);
    s.coordinates = 8192.0 * (i % 4 + 1);
    s.measured_round_s = fixed + alpha * s.messages +
                         beta * s.wire_bytes + gamma * s.coordinates;
    calibrator.add(s);
  }
  const CalibratedCostModel fitted = calibrator.fit();
  EXPECT_NEAR(fitted.fixed_s(), fixed, 1e-8);
  EXPECT_NEAR(fitted.alpha_s(), alpha, 1e-10);
  EXPECT_NEAR(fitted.beta_s_per_byte(), beta, 1e-14);
  EXPECT_NEAR(fitted.compute_per_coord("fp16"), gamma, 1e-13);
  EXPECT_NEAR(fitted.compute_per_coord("topkc"), gamma, 1e-13);
  EXPECT_DOUBLE_EQ(fitted.compute_per_coord("unseen"), 0.0);
  EXPECT_NEAR(
      fitted.mean_abs_error(std::span<const ScenarioSample>(
          calibrator.samples())),
      0.0, 1e-9);
}

}  // namespace
}  // namespace gcs::measure
