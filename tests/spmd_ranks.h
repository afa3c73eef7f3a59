// SPMD rank runner for the pipeline suites: one AggregationPipeline per
// rank, k rounds of aggregate_over on rank threads, over either substrate
// a deployment runs in one process:
//
//   * kFabric: one comm::Fabric shared by comm::run_workers threads. Each
//     rank is handed every worker's gradient (aggregate_over narrows the
//     view to its own), and a failing rank aborts the fabric.
//   * kSocket: one net::SocketFabric endpoint per thread over a fresh
//     Unix-domain rendezvous. Each rank is handed only its own gradient,
//     as a real rank's caller is.
//
// run_spmd returns every rank's outputs and per-round wire meters, read
// off the rank's own transport. When rank 0's pipeline carries a
// PipelineConfig::trace recorder, rank 0 is traced through its own
// endpoint (a comm::TappedTransport view on the shared Fabric) and each
// round's trace is returned; the other ranks run untraced.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "comm/fabric.h"
#include "comm/group.h"
#include "comm/transport_decorators.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "measure/trace.h"
#include "net/launcher.h"
#include "tensor/layout.h"

namespace gcs::test {

enum class Substrate { kFabric, kSocket };

inline const char* substrate_name(Substrate substrate) {
  return substrate == Substrate::kFabric ? "fabric" : "socket";
}

/// Every worker's gradient per round: [round][worker].
using RoundGrads = std::vector<std::vector<std::vector<float>>>;

struct SpmdRun {
  std::vector<std::vector<std::vector<float>>> outputs;  ///< [rank][round]
  std::vector<std::vector<std::uint64_t>> sent;          ///< [round][rank]
  std::vector<std::vector<std::uint64_t>> received;      ///< [round][rank]
  std::vector<measure::RoundTrace> traces;  ///< rank 0's, when traced
};

/// One pipeline per rank from a factory spec, all sharing `config`.
inline std::vector<core::AggregationPipeline> spmd_pipelines(
    const std::string& spec, const ModelLayout& layout, int world,
    const core::PipelineConfig& config) {
  std::vector<core::AggregationPipeline> pipelines;
  for (int r = 0; r < world; ++r) {
    pipelines.emplace_back(core::make_scheme_codec(spec, layout, world),
                           config);
  }
  return pipelines;
}

/// Runs grads.size() rounds with pipelines[r] as rank r. Rethrows the
/// first rank's error after every rank thread has finished.
inline SpmdRun run_spmd(Substrate substrate,
                        std::vector<core::AggregationPipeline>& pipelines,
                        const RoundGrads& grads) {
  const int world = static_cast<int>(pipelines.size());
  const auto n = pipelines.size();
  SpmdRun run;
  run.outputs.resize(n);
  run.sent.assign(grads.size(), std::vector<std::uint64_t>(n, 0));
  run.received = run.sent;
  measure::TraceRecorder* trace = pipelines[0].config().trace;

  const auto body = [&](comm::Communicator& comm) {
    const int rank = comm.rank();
    const auto r = static_cast<std::size_t>(rank);
    comm::Transport& transport = comm.transport();
    for (std::size_t k = 0; k < grads.size(); ++k) {
      std::vector<std::span<const float>> views(n);
      for (std::size_t w = 0; w < n; ++w) {
        if (substrate == Substrate::kFabric || w == r) views[w] = grads[k][w];
      }
      const std::uint64_t sent0 = transport.bytes_sent(rank);
      const std::uint64_t received0 = transport.bytes_received(rank);
      std::vector<float> out(pipelines[r].codec().dimension());
      pipelines[r].aggregate_over(comm, views, out, k);
      run.sent[k][r] = transport.bytes_sent(rank) - sent0;
      run.received[k][r] = transport.bytes_received(rank) - received0;
      run.outputs[r].push_back(std::move(out));
      if (rank == 0 && trace != nullptr) {
        run.traces.push_back(trace->take(k, pipelines[0].codec().name(),
                                         substrate_name(substrate)));
      }
    }
  };

  if (substrate == Substrate::kFabric) {
    comm::Fabric fabric(world);
    comm::run_workers(fabric, [&](comm::Communicator& comm) {
      if (comm.rank() != 0) {
        body(comm);
        return;
      }
      comm::TappedTransport own(fabric);
      comm::Communicator rank0(own, 0);
      body(rank0);
    });
    return run;
  }
  net::run_socket_ranks(world, [&](net::SocketFabric& fabric, int rank) {
    comm::Communicator comm(fabric, rank);
    body(comm);
  });
  return run;
}

}  // namespace gcs::test
