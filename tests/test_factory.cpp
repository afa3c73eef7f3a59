// Tests for core/factory: the spec grammar and error handling.
#include "core/factory.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace gcs::core {
namespace {

ModelLayout layout() { return make_transformer_like_layout(1 << 14); }

TEST(Factory, Baselines) {
  const auto l = layout();
  EXPECT_EQ(make_pipeline("fp16", l, 4).codec().name(), "Baseline FP16");
  EXPECT_EQ(make_pipeline("fp32", l, 4).codec().name(), "Baseline FP32");
}

TEST(Factory, TopKByBits) {
  const auto l = layout();
  auto c = make_pipeline("topk:b=8", l, 4);
  EXPECT_EQ(c.codec().name(), "TopK");
  EXPECT_EQ(c.codec().path(), AggregationPath::kAllGather);
}

TEST(Factory, TopKByK) {
  const auto l = layout();
  EXPECT_NO_THROW(make_pipeline("topk:k=100", l, 2));
}

TEST(Factory, TopKC) {
  const auto l = layout();
  auto c = make_pipeline("topkc:b=2", l, 4);
  EXPECT_EQ(c.codec().name(), "TopKC");
  EXPECT_EQ(c.codec().path(), AggregationPath::kAllReduce);
  auto p = make_pipeline("topkc:b=2:perm", l, 4);
  EXPECT_EQ(p.codec().name(), "TopKC Permutation");
}

TEST(Factory, ThcVariants) {
  const auto l = layout();
  auto sat = make_pipeline("thc:q=4:b=4:sat:partial", l, 4);
  EXPECT_NE(sat.codec().name().find("Sat"), std::string::npos);
  auto wide = make_pipeline("thc:q=4:b=8:full", l, 4);
  EXPECT_NE(wide.codec().name().find("BL"), std::string::npos);
  EXPECT_NE(wide.codec().name().find("full"), std::string::npos);
  auto norot = make_pipeline("thc:q=2:b=2:norot", l, 4);
  EXPECT_NE(norot.codec().name().find("no-rotation"), std::string::npos);
}

TEST(Factory, PowerSgd) {
  const auto l = layout();
  auto c = make_pipeline("powersgd:r=16", l, 4);
  EXPECT_EQ(c.codec().name(), "PowerSGD-16");
}

TEST(Factory, WorldSizePropagates) {
  const auto l = layout();
  EXPECT_EQ(make_pipeline("fp16", l, 7).codec().world_size(), 7);
}

TEST(Factory, UnknownKindThrows) {
  const auto l = layout();
  EXPECT_THROW(make_pipeline("zipzap", l, 4), Error);
}

TEST(Factory, EmptySpecThrows) {
  const auto l = layout();
  EXPECT_THROW(make_pipeline("", l, 4), Error);
}

TEST(Factory, UnknownOptionOrFlagThrows) {
  // The contract: a typo must not silently run a different experiment —
  // including the shared pipeline knobs (chunk=, fabric).
  const ModelLayout l({LayerSpec{"x", 100, 1}});
  EXPECT_THROW(make_pipeline("topkc:b=8:chunck=65536", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:fabrik", l, 4), Error);
  EXPECT_THROW(make_pipeline("powersgd:rank=4", l, 4), Error);
  EXPECT_THROW(make_pipeline("thc:q=4:b=4:saturate", l, 4), Error);
  // The socket fabric has one I/O engine; the removed io= knob is unknown.
  EXPECT_THROW(make_pipeline("fp16:fabric=socket:io=threads", l, 4), Error);
  // The real knobs still parse.
  EXPECT_NO_THROW(make_pipeline("topkc:b=8:chunk=65536:fabric=socket", l, 4));
  EXPECT_NO_THROW(make_pipeline("fp16:tree:chunk=64", l, 4));
}

TEST(Factory, FabricSocketIsTheOnlyTransportDeclaration) {
  const ModelLayout l({LayerSpec{"x", 100, 1}});
  // bench/e2e's workload and selfcheck knobs parse verbatim on every
  // scheme it runs.
  for (const char* scheme : {"fp16", "topk:b=8", "topkc:b=8",
                             "thc:q=4:b=4:sat:partial", "powersgd:r=4"}) {
    for (const char* knobs :
         {":chunk=1048576", ":chunk=65536", ":chunk=4096",
          ":fabric=socket:elastic=on",
          ":buckets=layer:bucket=4194304:workers=2",
          ":buckets=layer:bucket=32768:workers=2"}) {
      const std::string spec = std::string(scheme) + knobs;
      EXPECT_NO_THROW(make_scheme_codec(spec, l, 4)) << spec;
      EXPECT_NO_THROW(parse_pipeline_config(spec, l, 4)) << spec;
    }
  }
  EXPECT_TRUE(parse_pipeline_config("fp16:fabric=socket:elastic=on").elastic);
  EXPECT_NO_THROW(make_pipeline("fp16:fabric=socket", l, 4));
  // The removed transport knobs fail loudly: a spec no longer selects an
  // in-process transport, and socket addresses and deadlines belong to
  // the caller's net::SocketFabricConfig.
  for (const char* removed :
       {"fp16:fabric", "fp16:fabric=local", "fp16:fabric=threaded",
        "fp16:fabric=socket:port=29500",
        "fp16:fabric=socket:port=29500:iface=127.0.0.1",
        "fp16:fabric=socket:peer_timeout_ms=500"}) {
    EXPECT_THROW(make_pipeline(removed, l, 4), Error) << removed;
    EXPECT_THROW(make_scheme_codec(removed, l, 4), Error) << removed;
  }
}

TEST(Factory, ElasticKnobsParseAndReject) {
  const ModelLayout l({LayerSpec{"x", 100, 1}});
  // The knob parses with fabric=socket and lands in the pipeline config.
  EXPECT_NO_THROW(make_pipeline("fp16:fabric=socket:elastic=on", l, 4));
  EXPECT_NO_THROW(make_pipeline("fp16:fabric=socket:elastic=off", l, 4));
  EXPECT_TRUE(parse_pipeline_config("fp16:fabric=socket:elastic=on")
                  .elastic);
  EXPECT_FALSE(parse_pipeline_config("fp16:fabric=socket:elastic=off")
                   .elastic);
  EXPECT_FALSE(parse_pipeline_config("fp16:fabric=socket").elastic);
  // Malformed values must not silently run a different experiment.
  EXPECT_THROW(make_pipeline("fp16:fabric=socket:elastic=yes", l, 4),
               Error);
  EXPECT_THROW(make_pipeline("fp16:fabric=socket:elastic=", l, 4), Error);
  // Elastic membership lives in the socket transport: elastic= needs
  // fabric=socket.
  EXPECT_THROW(make_pipeline("fp16:elastic=on", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:elastic=off", l, 4), Error);
  EXPECT_THROW(parse_pipeline_config("fp16:elastic=on"), Error);
}

TEST(Factory, SchemeCodecEntryValidatesPipelineKnobs) {
  // make_scheme_codec ignores the shared knobs (the caller drives its
  // own pipeline) but must still reject malformed ones — same no-silent-
  // typo contract as make_pipeline.
  const ModelLayout l({LayerSpec{"x", 100, 1}});
  EXPECT_NO_THROW(make_scheme_codec("topkc:b=8:chunk=4096", l, 4));
  EXPECT_THROW(make_scheme_codec("topkc:b=8:fabric=bogus", l, 4), Error);
  EXPECT_THROW(make_scheme_codec("topkc:b=8:chunk=abc", l, 4), Error);
  EXPECT_THROW(make_scheme_codec("fp16:port=29500", l, 4), Error);
}

TEST(Factory, MalformedFabricValuesThrow) {
  // Same contract as the misspelled-option tests: a malformed transport
  // choice must not silently run a different experiment.
  const ModelLayout l({LayerSpec{"x", 100, 1}});
  EXPECT_THROW(make_pipeline("fp16:fabric=sockets", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:fabric=bogus", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:fabric=", l, 4), Error);
}

TEST(Factory, MalformedNumberThrows) {
  const auto l = layout();
  EXPECT_THROW(make_pipeline("topkc:b=abc", l, 4), Error);
}

TEST(Factory, TopKWithoutSizeThrows) {
  const auto l = layout();
  EXPECT_THROW(make_pipeline("topk", l, 4), Error);
}

TEST(Factory, SchedulerGrammarAccepts) {
  const ModelLayout l({LayerSpec{"a", 100, 1}, LayerSpec{"b", 60, 1}});
  EXPECT_NO_THROW(make_pipeline("fp16:buckets=layer", l, 4));
  EXPECT_NO_THROW(make_pipeline("fp16:buckets=size:chunk=64", l, 4));
  EXPECT_NO_THROW(make_pipeline("fp16:buckets=layer:bucket=128", l, 4));
  EXPECT_NO_THROW(make_pipeline("topkc:b=8:buckets=layer:workers=2", l, 4));
  EXPECT_NO_THROW(make_pipeline("fp16:workers=3", l, 4));
  EXPECT_NO_THROW(make_pipeline("fp16:autotune", l, 4));
  EXPECT_NO_THROW(make_pipeline("fp16:autotune=1", l, 4));
  EXPECT_NO_THROW(make_pipeline("fp16:autotune=0:chunk=64", l, 4));
  EXPECT_NO_THROW(
      make_pipeline("fp16:buckets=layer:workers=2:autotune", l, 4));
  // The parsed knobs land in the pipeline config.
  const auto config = parse_pipeline_config(
      "fp16:buckets=layer:bucket=256:workers=2", l, 4);
  EXPECT_EQ(config.bucket_mode, sched::BucketMode::kLayerBuckets);
  EXPECT_EQ(config.bucket_bytes, 256u);
  EXPECT_EQ(config.encode_workers, 2);
  EXPECT_EQ(config.layout.total_size(), l.total_size());
}

TEST(Factory, SchedulerGrammarRejects) {
  // The no-silent-typo contract extends to the scheduler knobs: a bogus
  // bucket mode, a zero-width pool or contradictory autotuning must not
  // silently run a different schedule.
  const ModelLayout l({LayerSpec{"a", 100, 1}, LayerSpec{"b", 60, 1}});
  EXPECT_THROW(make_pipeline("fp16:workers=0", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:workers=-2", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:workers=1.5", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:workers=abc", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:buckets=bogus", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:buckets=", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:buckets=Layer", l, 4), Error);
  // autotune picks the sizes itself; explicit sizes contradict it.
  EXPECT_THROW(make_pipeline("fp16:autotune:chunk=65536", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:autotune=1:chunk=65536", l, 4), Error);
  EXPECT_THROW(
      make_pipeline("fp16:buckets=layer:autotune:bucket=1024", l, 4),
      Error);
  EXPECT_THROW(make_pipeline("fp16:autotune=2", l, 4), Error);
  // bucket= is a layer-bucket knob.
  EXPECT_THROW(make_pipeline("fp16:bucket=1024", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:buckets=size:bucket=1024", l, 4),
               Error);
  EXPECT_THROW(make_pipeline("fp16:buckets=layer:bucket=0", l, 4), Error);
  // Misspellings stay fatal.
  EXPECT_THROW(make_pipeline("fp16:bucketz=layer", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:worker=2", l, 4), Error);
}

TEST(Factory, BackwardFracAcceptsInRangeFractions) {
  const ModelLayout l({LayerSpec{"a", 100, 1}, LayerSpec{"b", 60, 1}});
  EXPECT_NO_THROW(make_pipeline("fp16:backward_frac=0.5", l, 4));
  EXPECT_NO_THROW(
      make_pipeline("fp16:buckets=layer:backward_frac=0.8", l, 4));
  // Both factory entry points validate the knob (parse_scheme carries it
  // to the cost model's bucketed charge, tested in test_sched.cpp).
  EXPECT_NO_THROW(parse_pipeline_config("fp16:backward_frac=0.71", l, 4));
}

TEST(Factory, BackwardFracRejectsOutOfRange) {
  // The fraction is a share of compute: 0 and 1 are degenerate (no
  // backward pass / no forward pass) and anything outside is a typo.
  const ModelLayout l({LayerSpec{"a", 100, 1}, LayerSpec{"b", 60, 1}});
  EXPECT_THROW(make_pipeline("fp16:backward_frac=0", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:backward_frac=1", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:backward_frac=1.5", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:backward_frac=-0.3", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:backward_frac=abc", l, 4), Error);
  EXPECT_THROW(make_pipeline("fp16:backward_frac=", l, 4), Error);
  // The misspelled knob stays fatal, as everywhere in the grammar.
  EXPECT_THROW(make_pipeline("fp16:backwards_frac=0.5", l, 4), Error);
}

TEST(Factory, NoEfFlag) {
  // Spec parsing must accept the noef flag everywhere it is documented.
  const auto l = layout();
  EXPECT_NO_THROW(make_pipeline("topk:b=2:noef", l, 4));
  EXPECT_NO_THROW(make_pipeline("topkc:b=2:noef", l, 4));
  EXPECT_NO_THROW(make_pipeline("powersgd:r=4:noef", l, 4));
}

}  // namespace
}  // namespace gcs::core
