#include "core/factory.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "common/check.h"
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

  bool has_option(const std::string& key) const {
    return options.find(key) != options.end();
  }

  /// Enforces the factory contract that a typo must not silently run a
  /// different experiment: every option key and flag must be recognized
  /// by the scheme (or be one of the shared pipeline knobs).
  void require_known(std::initializer_list<const char*> known_options,
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

  double get_double(const std::string& key, double fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0') {
      throw Error("compressor spec: option " + key + " expects a number, got '" +
                  it->second + "'");
    }
    return v;
  }

  /// An integer option in [min, max]: byte counts, widths, ranks.
  std::size_t get_uint(const std::string& key, std::size_t fallback,
                       std::size_t min,
                       std::size_t max = std::size_t{1} << 53) const {
    const double v = get_double(key, static_cast<double>(fallback));
    if (!(v >= static_cast<double>(min) && v <= static_cast<double>(max)) ||
        v != std::floor(v)) {
      throw Error("compressor spec: option " + key +
                  " expects an integer in [" + std::to_string(min) + ", " +
                  std::to_string(max) + "], got '" + options.at(key) + "'");
    }
    return static_cast<std::size_t>(v);
  }

  /// The b= bit budget of topk and topkc: required and positive.
  double get_bits() const {
    if (!has_option("b")) throw Error(kind + " spec needs b=");
    const double b = get_double("b", 0.0);
    if (!(b > 0.0)) {
      throw Error("compressor spec: b= expects a positive bit budget, got '" +
                  options.at("b") + "'");
    }
    return b;
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
    const std::string name = token.substr(0, eq);
    // A repeated key must not leave its readers to pick a winner.
    if (spec.has_option(name) || spec.has_flag(name)) {
      throw Error("compressor spec: '" + name + "' given twice in '" + text +
                  "'");
    }
    if (eq == std::string::npos) {
      spec.flags.push_back(token);
    } else {
      spec.options[name] = token.substr(eq + 1);
    }
  }
  if (spec.kind.empty()) throw Error("empty compressor spec");
  return spec;
}

SchemeSpec scheme_of(const Spec& spec, const ModelLayout& layout,
                     int world_size);

/// Parses and validates the shared pipeline/transport/scheduler knobs
/// (see factory.h for the grammar). `layout` provides the layer table the
/// bucket planner and the autotuner need; null = grammar-only validation
/// (buckets=layer and autotune are still accepted, the caller attaches a
/// layout itself).
PipelineConfig pipeline_config_of(const Spec& spec,
                                  const ModelLayout* layout,
                                  int world_size) {
  PipelineConfig pipeline;
  pipeline.chunk_bytes = spec.get_uint("chunk", 0, 0);

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
  if (spec.has_option("bucket")) {
    if (pipeline.bucket_mode != sched::BucketMode::kLayerBuckets) {
      throw Error(
          "compressor spec: bucket= (layer-bucket byte cap) is only "
          "meaningful with buckets=layer");
    }
    pipeline.bucket_bytes = spec.get_uint("bucket", 0, 1);
  }
  pipeline.encode_workers = static_cast<int>(
      spec.get_uint("workers", 1, 1, std::numeric_limits<int>::max()));

  // backward_frac is a charge-path knob (scheme_of carries it to the cost
  // model; the pipeline's value path never needs it), but its validation
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
    if (spec.has_option("chunk")) {
      throw Error(
          "compressor spec: autotune picks the chunk size itself — drop "
          "chunk= or autotune");
    }
    if (spec.has_option("bucket")) {
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
    const sim::CostModel cost(sim::CostConstants{},
                              netsim::NetworkModel{}, world_size);
    const sched::AutotuneChoice choice = sched::autotune_sizes(
        cost, sched::workload_for_layout(*layout, spec.kind),
        scheme_of(spec, *layout, world_size), pipeline.encode_workers);
    if (pipeline.bucket_mode == sched::BucketMode::kLayerBuckets) {
      pipeline.bucket_bytes = choice.bucket_bytes;
    } else {
      pipeline.chunk_bytes = choice.chunk_bytes;
    }
  }
  return pipeline;
}

/// Validates the whole spec and reads its scheme half. Builds nothing:
/// the configs are plain values, so the cost model can parse a spec on a
/// paper-scale layout without allocating a codec.
SchemeSpec scheme_of(const Spec& spec, const ModelLayout& layout,
                     int world_size) {
  // The shared knobs are validated here too, so every entry point
  // rejects the same specs.
  (void)pipeline_config_of(spec, nullptr, world_size);
  const std::size_t d = layout.total_size();
  SchemeSpec scheme;
  scheme.backward_frac =
      spec.get_double("backward_frac", sched::kBackwardFraction);

  if (spec.kind == "fp32" || spec.kind == "fp16") {
    spec.require_known({}, {"tree", "tf32"});
    BaselineConfig config;
    config.dimension = d;
    config.world_size = world_size;
    config.comm_precision =
        spec.kind == "fp16" ? Precision::kFp16 : Precision::kFp32;
    config.use_tree = spec.has_flag("tree");
    scheme.config = config;
    scheme.tf32 = spec.has_flag("tf32");
    return scheme;
  }

  if (spec.kind == "topk") {
    spec.require_known({"k", "b"}, {"noef", "delta"});
    TopKConfig config;
    config.dimension = d;
    config.world_size = world_size;
    config.error_feedback = !spec.has_flag("noef");
    config.delta_indices = spec.has_flag("delta");
    if (spec.has_option("k") == spec.has_option("b")) {
      throw Error("topk spec needs one of k= or b=");
    }
    if (spec.has_option("k")) {
      config.k = spec.get_uint("k", 0, 1);
    } else {
      scheme.topk_bits = spec.get_bits();
      config.k = TopKConfig::k_for_bits(d, scheme.topk_bits,
                                        config.delta_indices);
    }
    scheme.config = config;
    return scheme;
  }

  if (spec.kind == "topkc") {
    spec.require_known({"b", "c"}, {"noef", "perm"});
    TopKCConfig config;
    config.dimension = d;
    config.world_size = world_size;
    config.error_feedback = !spec.has_flag("noef");
    config.permute = spec.has_flag("perm");
    const double b = spec.get_bits();
    config.chunk_size =
        spec.get_uint("c", TopKCConfig::default_chunk_size(b), 1);
    config.num_top_chunks = TopKCConfig::j_for_bits(d, config.chunk_size, b);
    scheme.config = config;
    return scheme;
  }

  if (spec.kind == "thc") {
    spec.require_known({"q", "b"},
                       {"sat", "wide", "full", "partial", "norot"});
    const int rotations = spec.has_flag("full") + spec.has_flag("partial") +
                          spec.has_flag("norot");
    if (rotations > 1 || (spec.has_flag("sat") && spec.has_flag("wide"))) {
      throw Error("thc spec: full, partial and norot exclude each other, "
                  "as do sat and wide");
    }
    ThcConfig config;
    config.dimension = d;
    config.world_size = world_size;
    constexpr std::size_t kMaxBits = std::numeric_limits<unsigned>::max();
    config.q = static_cast<unsigned>(spec.get_uint("q", 4, 1, kMaxBits));
    config.b =
        static_cast<unsigned>(spec.get_uint("b", config.q, 1, kMaxBits));
    config.saturation = config.b == config.q;
    if (spec.has_flag("sat")) config.saturation = true;
    if (spec.has_flag("wide")) config.saturation = false;
    if (spec.has_flag("full")) config.rotation = RotationMode::kFull;
    if (spec.has_flag("partial")) config.rotation = RotationMode::kPartial;
    if (spec.has_flag("norot")) config.rotation = RotationMode::kNone;
    scheme.config = config;
    return scheme;
  }

  if (spec.kind == "powersgd") {
    spec.require_known({"r"}, {"noef"});
    PowerSgdConfig config;
    config.layout = layout;
    config.world_size = world_size;
    config.rank = spec.get_uint("r", 4, 1);
    config.error_feedback = !spec.has_flag("noef");
    scheme.config = config;
    return scheme;
  }

  throw Error("unknown compressor kind '" + spec.kind + "'");
}

SchemeCodecPtr codec_of(const SchemeSpec& scheme) {
  const auto& c = scheme.config;
  if (const auto* x = std::get_if<BaselineConfig>(&c)) {
    return make_baseline_codec(*x);
  }
  if (const auto* x = std::get_if<TopKConfig>(&c)) return make_topk_codec(*x);
  if (const auto* x = std::get_if<TopKCConfig>(&c)) {
    return make_topkc_codec(*x);
  }
  if (const auto* x = std::get_if<ThcConfig>(&c)) return make_thc_codec(*x);
  return make_powersgd_codec(std::get<PowerSgdConfig>(c));
}

}  // namespace

AggregationPipeline make_pipeline(const std::string& text,
                                  const ModelLayout& layout, int world_size) {
  const Spec spec = parse_spec(text);
  const PipelineConfig pipeline =
      pipeline_config_of(spec, &layout, world_size);
  return AggregationPipeline(codec_of(scheme_of(spec, layout, world_size)),
                             pipeline);
}

SchemeSpec parse_scheme(const std::string& text, const ModelLayout& layout,
                        int world_size) {
  return scheme_of(parse_spec(text), layout, world_size);
}

SchemeCodecPtr make_scheme_codec(const std::string& text,
                                 const ModelLayout& layout, int world_size) {
  return codec_of(parse_scheme(text, layout, world_size));
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
