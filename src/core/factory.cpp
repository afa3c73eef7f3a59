#include "core/factory.h"

#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "core/baselines.h"
#include "core/powersgd_compressor.h"
#include "core/thc_compressor.h"
#include "core/topk_compressor.h"
#include "core/topkc_compressor.h"
#include "sched/autotune.h"

namespace gcs::core {
namespace {

/// Spec keys/flags consumed by the pipeline/scheduler layers rather than
/// a scheme; every scheme's require_known() treats these as known.
constexpr const char* kPipelineOptions[] = {
    "chunk",   "fabric",        "buckets",  "bucket",
    "workers", "backward_frac", "autotune", "elastic"};
constexpr const char* kPipelineFlags[] = {"autotune"};

struct Spec {
  std::string kind;
  std::map<std::string, std::string> options;
  std::vector<std::string> flags;

  bool has_flag(const std::string& f) const {
    for (const auto& x : flags) {
      if (x == f) return true;
    }
    return false;
  }

  /// Enforces the factory contract that a typo must not silently run a
  /// different experiment: every option key and flag must be recognized
  /// by the scheme (or be one of the shared pipeline knobs).
  void require_known(const std::string& kind,
                     std::initializer_list<const char*> known_options,
                     std::initializer_list<const char*> known_flags) const {
    const auto in = [](auto&& set, const std::string& x) {
      for (const char* s : set) {
        if (x == s) return true;
      }
      return false;
    };
    for (const auto& [key, value] : options) {
      if (!in(kPipelineOptions, key) && !in(known_options, key)) {
        throw Error("compressor spec: unknown option '" + key + "' for '" +
                    kind + "'");
      }
    }
    for (const auto& flag : flags) {
      if (!in(kPipelineFlags, flag) && !in(known_flags, flag)) {
        throw Error("compressor spec: unknown flag '" + flag + "' for '" +
                    kind + "'");
      }
    }
  }

  double get_double(const std::string& key, double fallback,
                    bool* found = nullptr) const {
    const auto it = options.find(key);
    if (found != nullptr) *found = it != options.end();
    if (it == options.end()) return fallback;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0') {
      throw Error("compressor spec: option " + key + " expects a number, got '" +
                  it->second + "'");
    }
    return v;
  }
};

Spec parse_spec(const std::string& text) {
  Spec spec;
  std::istringstream is(text);
  std::string token;
  bool first = true;
  while (std::getline(is, token, ':')) {
    if (first) {
      spec.kind = token;
      first = false;
      continue;
    }
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      spec.flags.push_back(token);
    } else {
      spec.options[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  if (spec.kind.empty()) throw Error("empty compressor spec");
  return spec;
}

/// Parses and validates the shared pipeline/transport/scheduler knobs
/// (see factory.h for the grammar). `layout` provides the layer table the
/// bucket planner and the autotuner need; null = grammar-only validation
/// (buckets=layer and autotune are still accepted, the caller attaches a
/// layout itself).
PipelineConfig pipeline_config_of(const Spec& spec,
                                  const ModelLayout* layout,
                                  int world_size) {
  PipelineConfig pipeline;
  pipeline.chunk_bytes =
      static_cast<std::size_t>(spec.get_double("chunk", 0.0));

  // ---- transport declaration: fabric=socket names the transport that
  // elastic= needs; the caller builds the endpoints.
  const auto fabric_it = spec.options.find("fabric");
  if (fabric_it != spec.options.end() && fabric_it->second != "socket") {
    throw Error(
        "compressor spec: fabric= expects socket (the only transport a "
        "spec declares), got '" +
        fabric_it->second + "'");
  }
  const auto elastic_it = spec.options.find("elastic");
  if (elastic_it != spec.options.end()) {
    const std::string& value = elastic_it->second;
    if (value != "on" && value != "off") {
      throw Error("compressor spec: elastic= expects on or off, got '" +
                  value + "'");
    }
    if (fabric_it == spec.options.end()) {
      throw Error(
          "compressor spec: elastic= is only meaningful with "
          "fabric=socket (elastic membership lives in the socket "
          "transport)");
    }
    pipeline.elastic = value == "on";
  }
  // ---- scheduler knobs (DESIGN.md section 4): buckets=, bucket=,
  // workers=, autotune.
  const auto buckets_it = spec.options.find("buckets");
  if (buckets_it != spec.options.end()) {
    const std::string& value = buckets_it->second;
    if (value == "layer") {
      pipeline.bucket_mode = sched::BucketMode::kLayerBuckets;
    } else if (value == "size") {
      pipeline.bucket_mode = sched::BucketMode::kSizeChunks;
    } else {
      throw Error("compressor spec: buckets= expects layer or size, got '" +
                  value + "'");
    }
  }
  const auto bucket_it = spec.options.find("bucket");
  if (bucket_it != spec.options.end()) {
    if (pipeline.bucket_mode != sched::BucketMode::kLayerBuckets) {
      throw Error(
          "compressor spec: bucket= (layer-bucket byte cap) is only "
          "meaningful with buckets=layer");
    }
    const double bytes = spec.get_double("bucket", 0.0);
    if (bytes < 1.0) {
      throw Error("compressor spec: bucket= expects a positive byte count");
    }
    pipeline.bucket_bytes = static_cast<std::size_t>(bytes);
  }
  const auto workers_it = spec.options.find("workers");
  if (workers_it != spec.options.end()) {
    const double workers = spec.get_double("workers", 1.0);
    if (workers < 1.0 || workers != static_cast<double>(
                                        static_cast<int>(workers))) {
      throw Error(
          "compressor spec: workers= expects a positive integer (the "
          "encode worker pool width), got '" +
          workers_it->second + "'");
    }
    pipeline.encode_workers = static_cast<int>(workers);
  }

  // backward_frac is a charge-path knob (sim::CostModel re-parses the
  // spec; the pipeline's value path never needs it), but its validation
  // lives here with the rest of the grammar: a typo or an out-of-range
  // share must not silently charge a different schedule.
  const auto frac_it = spec.options.find("backward_frac");
  if (frac_it != spec.options.end()) {
    const double frac = spec.get_double("backward_frac", 0.0);
    if (!(frac > 0.0 && frac < 1.0)) {
      throw Error(
          "compressor spec: backward_frac= expects a fraction strictly "
          "between 0 and 1 (the backward share of fwd+bwd compute), got '" +
          frac_it->second + "'");
    }
  }

  bool autotune = spec.has_flag("autotune");
  const auto autotune_it = spec.options.find("autotune");
  if (autotune_it != spec.options.end()) {
    if (autotune_it->second == "1") {
      autotune = true;
    } else if (autotune_it->second != "0") {
      throw Error("compressor spec: autotune= expects 0 or 1, got '" +
                  autotune_it->second + "'");
    }
  }
  if (autotune) {
    if (spec.options.find("chunk") != spec.options.end()) {
      throw Error(
          "compressor spec: autotune picks the chunk size itself — drop "
          "chunk= or autotune");
    }
    if (bucket_it != spec.options.end()) {
      throw Error(
          "compressor spec: autotune picks the bucket size itself — drop "
          "bucket= or autotune");
    }
  }
  if (pipeline.bucket_mode == sched::BucketMode::kLayerBuckets &&
      layout != nullptr) {
    pipeline.layout = *layout;
  }
  if (autotune && layout != nullptr) {
    // Resolve the autotuned sizes against the cost model, standing the
    // layout in for a calibrated workload (sched/autotune.h).
    const sim::WorkloadSpec workload =
        sched::workload_for_layout(*layout, spec.kind);
    // Strip the knobs the sweep varies so charge dispatch sees a plain
    // scheme spec (chunk=/bucket= are rejected above; buckets=layer in
    // the spec would force bucketed charging inside the sweep's chunked
    // arm).
    std::string plain = spec.kind;
    for (const auto& [key, value] : spec.options) {
      if (key == "buckets" || key == "workers" || key == "fabric" ||
          key == "autotune" || key == "elastic") {
        continue;
      }
      plain += ":" + key + "=" + value;
    }
    for (const auto& flag : spec.flags) {
      if (flag == "autotune") continue;
      plain += ":" + flag;
    }
    const sim::CostModel cost(sim::CostConstants{},
                              netsim::NetworkModel{}, world_size);
    const sched::AutotuneChoice choice = sched::autotune_sizes(
        cost, workload, plain, pipeline.encode_workers);
    if (pipeline.bucket_mode == sched::BucketMode::kLayerBuckets) {
      pipeline.bucket_bytes = choice.bucket_bytes;
    } else {
      pipeline.chunk_bytes = choice.chunk_bytes;
    }
  }
  return pipeline;
}

SchemeCodecPtr codec_of(const Spec& spec, const std::string& text,
                        const ModelLayout& layout, int world_size) {
  const std::size_t d = layout.total_size();

  if (spec.kind == "fp32" || spec.kind == "fp16") {
    // "tf32" is consumed by the cost model's re-parse of the same spec.
    spec.require_known(spec.kind, {}, {"tree", "tf32"});
    BaselineConfig config;
    config.dimension = d;
    config.world_size = world_size;
    config.comm_precision =
        spec.kind == "fp16" ? Precision::kFp16 : Precision::kFp32;
    config.use_tree = spec.has_flag("tree");
    return make_baseline_codec(config);
  }

  if (spec.kind == "topk") {
    spec.require_known(spec.kind, {"k", "b"}, {"noef", "delta"});
    TopKConfig config;
    config.dimension = d;
    config.world_size = world_size;
    config.error_feedback = !spec.has_flag("noef");
    config.delta_indices = spec.has_flag("delta");
    bool has_k = false;
    const double k = spec.get_double("k", 0, &has_k);
    if (has_k) {
      config.k = static_cast<std::size_t>(k);
    } else {
      bool has_b = false;
      const double b = spec.get_double("b", 8.0, &has_b);
      if (!has_b) throw Error("topk spec needs k= or b=");
      config.k = TopKConfig::k_for_bits(d, b, config.delta_indices);
    }
    return make_topk_codec(config);
  }

  if (spec.kind == "topkc") {
    spec.require_known(spec.kind, {"b", "c"}, {"noef", "perm"});
    TopKCConfig config;
    config.dimension = d;
    config.world_size = world_size;
    config.error_feedback = !spec.has_flag("noef");
    config.permute = spec.has_flag("perm");
    bool has_b = false;
    const double b = spec.get_double("b", 8.0, &has_b);
    if (!has_b) throw Error("topkc spec needs b=");
    config.chunk_size = static_cast<std::size_t>(spec.get_double(
        "c", static_cast<double>(TopKCConfig::default_chunk_size(b))));
    config.num_top_chunks = TopKCConfig::j_for_bits(d, config.chunk_size, b);
    return make_topkc_codec(config);
  }

  if (spec.kind == "thc") {
    spec.require_known(spec.kind, {"q", "b"},
                       {"sat", "wide", "full", "partial", "norot"});
    ThcConfig config;
    config.dimension = d;
    config.world_size = world_size;
    config.q = static_cast<unsigned>(spec.get_double("q", 4));
    config.b = static_cast<unsigned>(spec.get_double("b", config.q));
    config.saturation = config.b == config.q;
    if (spec.has_flag("sat")) config.saturation = true;
    if (spec.has_flag("wide")) config.saturation = false;
    if (spec.has_flag("full")) config.rotation = RotationMode::kFull;
    if (spec.has_flag("partial")) config.rotation = RotationMode::kPartial;
    if (spec.has_flag("norot")) config.rotation = RotationMode::kNone;
    return make_thc_codec(config);
  }

  if (spec.kind == "powersgd") {
    spec.require_known(spec.kind, {"r"}, {"noef"});
    PowerSgdConfig config;
    config.layout = layout;
    config.world_size = world_size;
    config.rank = static_cast<std::size_t>(spec.get_double("r", 4));
    config.error_feedback = !spec.has_flag("noef");
    return make_powersgd_codec(config);
  }

  throw Error("unknown compressor kind '" + spec.kind + "' in spec '" + text +
              "'");
}

}  // namespace

AggregationPipeline make_pipeline(const std::string& text,
                                  const ModelLayout& layout, int world_size) {
  const Spec spec = parse_spec(text);
  const PipelineConfig pipeline =
      pipeline_config_of(spec, &layout, world_size);
  return AggregationPipeline(codec_of(spec, text, layout, world_size),
                             pipeline);
}

SchemeCodecPtr make_scheme_codec(const std::string& text,
                                 const ModelLayout& layout, int world_size) {
  const Spec spec = parse_spec(text);
  // The shared knobs are ignored here (the caller owns the pipeline) but
  // still validated: a typo must not silently run a different experiment
  // through this entry point either.
  (void)pipeline_config_of(spec, &layout, world_size);
  return codec_of(spec, text, layout, world_size);
}

PipelineConfig parse_pipeline_config(const std::string& text) {
  // No layout here: buckets=layer parses, but the caller must attach its
  // own layout (PipelineConfig::layout) before constructing a pipeline.
  return pipeline_config_of(parse_spec(text), nullptr, 4);
}

PipelineConfig parse_pipeline_config(const std::string& text,
                                     const ModelLayout& layout,
                                     int world_size) {
  return pipeline_config_of(parse_spec(text), &layout, world_size);
}

bool has_scheduler_knobs(const std::string& text) {
  const Spec spec = parse_spec(text);
  for (const char* key : {"buckets", "bucket", "workers", "autotune"}) {
    if (spec.options.find(key) != spec.options.end()) return true;
  }
  return spec.has_flag("autotune");
}

}  // namespace gcs::core
