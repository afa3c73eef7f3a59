// Ablations for the paper's Section 2 claims that have no table of their
// own:
//   1. Aggregation-path scalability — all-reduce vs all-gather vs PS
//      communication time as the worker count grows (the reason
//      all-reduce compatibility matters at all).
//   2. Saturation vs worker count — the paper's caveat that "a large
//      number of workers ... may affect this conclusion": clip rate and
//      vNMSE of THC's Sat aggregation as n grows.
//   3. Footnote 2 — TopK with 16-bit delta-encoded indices (b = 32K/d
//      instead of 48K/d): wire savings vs the GPU-unfriendly encode cost.
#include <iostream>

#include "bench/bench_util.h"
#include "core/aggregation_pipeline.h"
#include "core/thc_compressor.h"
#include "core/topk_compressor.h"
#include "core/vnmse.h"

namespace {

using namespace gcs;
using namespace gcs::bench;

void path_scalability() {
  std::cout << "\n[1] Collective time for one BERT-sized FP16 payload vs "
               "worker count (seconds):\n";
  const netsim::NetworkModel net;
  const double bytes = 336e6 * 2.0;
  AsciiTable table({"n", "ring all-reduce", "tree all-reduce", "all-gather",
                    "PS", "PS co-located"});
  for (int n : {2, 4, 8, 16, 32, 64}) {
    table.add_row({std::to_string(n),
                   format_sig(net.ring_all_reduce_time(n, bytes), 3),
                   format_sig(net.tree_all_reduce_time(n, bytes), 3),
                   format_sig(net.all_gather_time(n, bytes), 3),
                   format_sig(net.ps_aggregate_time(n, bytes), 3),
                   format_sig(net.ps_aggregate_time(n, bytes, true), 3)});
  }
  std::cout << table.to_string()
            << "Ring time is ~flat in n (2(n-1)/n); all-gather and PS grow "
               "linearly (with incast on top for PS) — the paper's "
               "scalability argument for all-reduce compatibility.\n";
  write_table_json(table);
}

void saturation_vs_workers() {
  std::cout << "\n[2] THC saturation (b=q=4, full rotation) vs worker "
               "count, BERT-like gradients (d=2^18):\n";
  AsciiTable table({"n", "clip rate", "vNMSE"});
  for (int n : {2, 4, 8, 16, 32}) {
    core::SyntheticGradConfig gc;
    gc.layout = make_transformer_like_layout(std::size_t{1} << 18);
    gc.world_size = n;
    gc.locality = 0.999;
    gc.tail_sigma = 1.2;
    gc.signal_smoothness = 0.97;
    const core::SyntheticGradients source(gc);

    core::ThcConfig config;
    config.dimension = source.dimension();
    config.world_size = n;
    config.q = 4;
    config.b = 4;
    config.saturation = true;
    config.rotation = core::RotationMode::kFull;
    core::AggregationPipeline pipeline(core::make_thc_codec(config));

    std::vector<std::vector<float>> grads;
    source.generate(0, grads);
    std::vector<std::span<const float>> views;
    for (const auto& g : grads) views.emplace_back(g.data(), g.size());
    std::vector<float> out(source.dimension());
    const auto stats = pipeline.aggregate(
        std::span<const std::span<const float>>(views), out, 0);
    table.add_row({std::to_string(n),
                   format_percent(stats.sat.clip_rate(), 2),
                   format_sig(core::vnmse(out, std::span<const std::span<
                                                   const float>>(views)),
                              3)});
  }
  std::cout << table.to_string()
            << "Clip rate (and with it, bias) grows with n at fixed b=q — "
               "the paper's own caveat quantified; larger n needs b > q.\n";
  write_table_json(table);
}

void delta_indices() {
  std::cout << "\n[3] Footnote 2: TopK index encodings at equal K "
               "(d=2^20, K=d/96):\n";
  const std::size_t d = std::size_t{1} << 20;
  const std::size_t k = d / 96;
  core::SyntheticGradConfig gc;
  gc.layout = make_transformer_like_layout(d);
  gc.world_size = 4;
  const core::SyntheticGradients source(gc);
  std::vector<std::vector<float>> grads;
  source.generate(0, grads);
  std::vector<std::span<const float>> views;
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());

  AsciiTable table({"format", "bits/coordinate", "vNMSE"});
  for (bool delta : {false, true}) {
    core::TopKConfig config;
    config.dimension = source.dimension();
    config.world_size = 4;
    config.k = k;
    config.error_feedback = false;
    config.delta_indices = delta;
    core::AggregationPipeline pipeline(core::make_topk_codec(config));
    std::vector<float> out(source.dimension());
    const auto stats = pipeline.aggregate(
        std::span<const std::span<const float>>(views), out, 0);
    table.add_row(
        {delta ? "fp16 + 16-bit delta idx" : "fp16 + 32-bit idx",
         format_sig(stats.bits_per_coordinate(source.dimension()), 3),
         format_sig(
             core::vnmse(out,
                         std::span<const std::span<const float>>(views)),
             3)});
  }
  std::cout << table.to_string()
            << "Delta encoding carries the same coordinates in ~2/3 the "
               "bits; the paper skips it because the encode/decode pattern "
               "is GPU-unfriendly. The cost model charges a topk:...:delta "
               "spec the codec's K at 32-bit entries, with the same "
               "select and scatter-add cost as the plain format.\n";
  write_table_json(table);
}

}  // namespace

int main() {
  print_header("Ablations",
               "aggregation-path scalability, saturation vs n, footnote-2 "
               "index encoding");
  path_scalability();
  saturation_vs_workers();
  delta_indices();
  return 0;
}
