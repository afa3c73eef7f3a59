// String-spec aggregation-pipeline factory for examples and benchmark
// harnesses: one spec names a scheme codec plus the pipeline knobs that
// drive it.
//
// Grammar (colon-separated, key=value options):
//   "fp32"                      Baseline FP32
//   "fp16"                      Baseline FP16
//   "topk:b=8"                  TopK at 8 bits/coordinate (K = d*b/48)
//   "topk:k=1000"               TopK with explicit K (k= or b=, not both)
//   "topk:b=8:delta"            16-bit delta indices: 32-bit entries,
//                               K = d*b/32
//   "topkc:b=2"                 TopKC at 2 bits/coordinate (paper's C rule)
//   "topkc:b=2:c=64:perm"       explicit chunk size; permutation ablation
//   "thc:q=4:b=4:sat:partial"   THC, saturating, partial rotation
//   "thc:q=4:b=8:full"          THC baseline (wide bits, full rotation);
//                               at most one of full|partial|norot and
//                               of sat|wide
//   "powersgd:r=4"              PowerSGD rank 4
//   "fp16:tf32"                 charge TF32 forward+backward (fp32/fp16;
//                               read only by the cost model)
// Common options: "noef" disables error feedback where it defaults on;
// "chunk=<bytes>" splits every stage payload into chunks of at most that
// many bytes for the pipelined collectives (bit-identical values; affects
// the wire schedule and the charged round time).
//
// Scheduler knobs (see DESIGN.md section 4):
//   "buckets=layer"          layer-aligned DDP-style buckets (reverse
//                            backprop order) instead of size-based chunks
//   "buckets=size"           the default size-based chunking, explicitly
//   "bucket=<bytes>"         layer-bucket cap (default 25 MB); only with
//                            buckets=layer
//   "workers=<N>"            encode worker pool width (default 1)
//   "backward_frac=<f>"      backward share of fwd+bwd compute used by
//                            the backward-overlap charge; strictly inside
//                            (0, 1), default 2/3 (the classic rule of
//                            thumb — override with a measured profile)
//   "autotune" / "autotune=1"
//                            pick chunk/bucket bytes by sweeping the cost
//                            model; rejects an explicit chunk=/bucket=
//
// Transport declaration (see DESIGN.md section 5):
//   "fabric=socket"          the run's ranks talk over net::SocketFabric
//                            endpoints. The spec builds no transport: SPMD
//                            callers own their endpoints (addresses, recv
//                            deadlines) and call aggregate_over.
//
// Elastic membership (see DESIGN.md "Fault tolerance"):
//   "elastic=on|off"         survive a peer failure by re-rendezvousing
//                            the survivors (epoch bump, dense re-ranking,
//                            EF state carried over) instead of failing
//                            the run. Default off: a peer exit mid-round
//                            throws loudly on every surviving rank.
// elastic= is rejected without fabric=socket: elastic membership lives in
// the socket transport.
//
// Throws gcs::Error on malformed specs — a typo must not silently run a
// different experiment. A key or flag given twice is malformed too: no
// reader has to pick which value wins.
//
// This grammar has one reader. sim::CostModel charges a spec from
// parse_scheme and parse_pipeline_config, so the charge describes the
// experiment make_pipeline builds.
#pragma once

#include <cstddef>
#include <string>
#include <variant>

#include "core/aggregation_pipeline.h"
#include "core/baselines.h"
#include "core/codec.h"
#include "core/powersgd_compressor.h"
#include "core/thc_compressor.h"
#include "core/topk_compressor.h"
#include "core/topkc_compressor.h"
#include "sched/backward_source.h"
#include "tensor/layout.h"

namespace gcs::core {

/// Builds the scheme codec and its pipeline from a spec string. `layout`
/// provides the layer structure (required by PowerSGD; others use only
/// its total size).
AggregationPipeline make_pipeline(const std::string& spec,
                                  const ModelLayout& layout, int world_size);

/// The scheme half of a spec, validated and not built: the configuration
/// make_scheme_codec constructs, plus the values only the cost model
/// reads. Parsing allocates nothing codec-sized.
struct SchemeSpec {
  std::variant<BaselineConfig, TopKConfig, TopKCConfig, ThcConfig,
               PowerSgdConfig>
      config;
  /// topk's b= budget as written (0 with k=). The charge prices the
  /// budget, d*b/48 entries; the codec rounds K down to an integer.
  double topk_bits = 0.0;
  /// fp32/fp16 "tf32": the charged forward+backward runs in TF32.
  bool tf32 = false;
  /// "backward_frac=": the backward share of fwd+bwd compute in the
  /// bucketed charge. The value path never reads it.
  double backward_frac = sched::kBackwardFraction;
};

/// Parses and validates a whole spec (scheme options and the shared
/// knobs, without resolving autotune) and returns its scheme half.
SchemeSpec parse_scheme(const std::string& spec, const ModelLayout& layout,
                        int world_size);

/// Builds just the scheme codec for a spec (shared pipeline/transport
/// knobs are accepted and ignored). For callers that drive the codec
/// through their own AggregationPipeline — e.g. the gcs_worker binary,
/// where every process owns one transport endpoint.
SchemeCodecPtr make_scheme_codec(const std::string& spec,
                                 const ModelLayout& layout, int world_size);

/// Parses the shared pipeline/transport/scheduler knobs of a spec
/// (chunk=, fabric=, elastic=, buckets=, bucket=, workers=, autotune)
/// without building the codec. Validates the values with the
/// same rejection rules as make_pipeline. With a layout, autotune is
/// resolved: the sizes are swept through the cost model at the spec's
/// scheme, encode workers and backward_frac. The layout-free overload
/// accepts buckets=layer/autotune but leaves PipelineConfig::layout empty
/// (and the autotuned sizes unresolved) — the caller attaches a layout,
/// or uses the overload below.
PipelineConfig parse_pipeline_config(const std::string& spec);
PipelineConfig parse_pipeline_config(const std::string& spec,
                                     const ModelLayout& layout,
                                     int world_size);

/// True when the spec explicitly carries any scheduler knob (buckets=,
/// bucket=, workers=, autotune). For callers that append default
/// scheduler knobs to user specs (the ddp examples): a repeated key is
/// an error, so appending over an explicit choice would fail the spec.
bool has_scheduler_knobs(const std::string& spec);

}  // namespace gcs::core
