// Allocation census of steady-state SPMD rounds (DESIGN.md 3.1, "Round
// scratch").
//
// A separate test binary, because it replaces the global operator new for
// the whole program: every allocation of 64 KiB or more made while the
// census is counting is tallied, and also tallied as the codec's when the
// allocating thread is inside a codec call. A decorator around each
// rank's SchemeCodec and CodecRound marks those calls with a thread-local
// flag.
//
// The suite drives aggregate_over for all five schemes on 4 rank threads
// over comm::Fabric. After one warm-up round, a steady-state round must
// make no large allocation on the codec side on any rank: codecs lend
// their sessions round scratch and the pipeline encodes into per-stage
// buffers it keeps. The whole round's count (every rank's transport
// messages, and TopK's gathered blocks) is pinned per scheme as a golden
// number, so a new per-round buffer anywhere on the path shows up here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "comm/fabric.h"
#include "comm/group.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "core/synthetic_grad.h"
#include "tensor/layout.h"

namespace {

constexpr std::size_t kLarge = 64 * 1024;

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_large{0};        // every thread
std::atomic<std::uint64_t> g_large_codec{0};  // inside codec calls
thread_local int t_in_codec = 0;

void note(std::size_t size) noexcept {
  if (size < kLarge || !g_counting.load(std::memory_order_relaxed)) return;
  g_large.fetch_add(1, std::memory_order_relaxed);
  if (t_in_codec > 0) g_large_codec.fetch_add(1, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  note(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gcs::core {
namespace {

/// Marks the calling thread as inside the codec for one scope.
class InCodec {
 public:
  InCodec() noexcept { ++t_in_codec; }
  ~InCodec() { --t_in_codec; }
  InCodec(const InCodec&) = delete;
  InCodec& operator=(const InCodec&) = delete;
};

/// Forwards every session call, encode_into included, inside InCodec.
class CensusRound final : public CodecRound {
 public:
  explicit CensusRound(std::unique_ptr<CodecRound> inner)
      : inner_(std::move(inner)) {}
  ~CensusRound() override {
    InCodec scope;
    inner_.reset();
  }

  bool next_stage(WireStage& stage) override {
    InCodec scope;
    return inner_->next_stage(stage);
  }
  ByteBuffer encode(int worker) override {
    InCodec scope;
    return inner_->encode(worker);
  }
  void encode_into(int worker, ByteBuffer& out) override {
    InCodec scope;
    inner_->encode_into(worker, out);
  }
  bool supports_encode_range() const override {
    return inner_->supports_encode_range();
  }
  void encode_range(int worker, std::size_t offset,
                    std::span<std::byte> out) override {
    InCodec scope;
    inner_->encode_range(worker, offset, out);
  }
  void absorb_reduced(const ByteBuffer& reduced) override {
    InCodec scope;
    inner_->absorb_reduced(reduced);
  }
  void absorb_gathered(std::span<const ByteBuffer> payloads) override {
    InCodec scope;
    inner_->absorb_gathered(payloads);
  }
  void finish(std::span<float> out, RoundStats& stats) override {
    InCodec scope;
    inner_->finish(out, stats);
  }

 private:
  std::unique_ptr<CodecRound> inner_;
};

class CensusCodec final : public SchemeCodec {
 public:
  explicit CensusCodec(SchemeCodecPtr inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  AggregationPath path() const override { return inner_->path(); }
  int world_size() const override { return inner_->world_size(); }
  std::size_t dimension() const override { return inner_->dimension(); }
  void reset() override { inner_->reset(); }

  std::unique_ptr<CodecRound> begin_round(
      std::span<const std::span<const float>> grads,
      std::uint64_t round) override {
    InCodec scope;
    return std::make_unique<CensusRound>(inner_->begin_round(grads, round));
  }

 private:
  SchemeCodecPtr inner_;
};

constexpr int kWorld = 4;
constexpr int kRounds = 3;  // one warm-up round, then two counted ones

struct SchemeCensus {
  const char* spec;
  /// Allocations of >= 64 KiB in one steady-state round, summed over the
  /// four ranks: the chunked collectives' per-message copies, plus
  /// TopK's gathered blocks.
  std::uint64_t round_total;
};

// Layout: make_transformer_like_layout(1 << 20); chunk = 256 KiB. fp16's
// 48 are 4 ranks x 6 ring steps x 2 chunk messages of 256 KiB; PowerSGD's
// factor messages are all below 64 KiB.
const SchemeCensus kSchemes[] = {
    {"fp16", 48},
    {"topk:b=8", 52},
    {"topkc:b=8", 30},
    {"thc:q=4:b=4:sat:partial", 18},
    {"powersgd:r=4", 0},
};

struct Counts {
  std::uint64_t total = 0;
  std::uint64_t codec = 0;
};

/// Runs kRounds rounds of `spec` on kWorld Fabric rank threads and
/// returns the counts of every round (round 0 is the warm-up).
std::vector<Counts> census(const std::string& spec) {
  const ModelLayout layout = make_transformer_like_layout(std::size_t{1} << 20);
  const std::size_t d = layout.total_size();
  const std::string full = spec + ":chunk=262144";
  std::vector<AggregationPipeline> pipelines;
  for (int r = 0; r < kWorld; ++r) {
    pipelines.emplace_back(
        std::make_unique<CensusCodec>(make_scheme_codec(full, layout, kWorld)),
        parse_pipeline_config(full, layout, kWorld));
  }
  std::vector<std::vector<std::vector<float>>> grads;
  for (int k = 0; k < kRounds; ++k) {
    grads.push_back(seeded_worker_grads(d, kWorld, 31337,
                                        static_cast<std::uint64_t>(k)));
  }
  std::vector<std::vector<float>> outs(kWorld, std::vector<float>(d));
  comm::Fabric fabric(kWorld);
  std::vector<Counts> counts;
  for (int k = 0; k < kRounds; ++k) {
    g_large.store(0);
    g_large_codec.store(0);
    g_counting.store(k > 0);
    comm::run_workers(fabric, [&](comm::Communicator& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      std::vector<std::span<const float>> views(kWorld);
      views[r] = grads[static_cast<std::size_t>(k)][r];
      pipelines[r].aggregate_over(comm, views, outs[r],
                                  static_cast<std::uint64_t>(k));
    });
    g_counting.store(false);
    counts.push_back({g_large.load(), g_large_codec.load()});
  }
  return counts;
}

TEST(AllocCensus, SteadyStateRoundsAllocateNothingLargeInTheCodec) {
  for (const SchemeCensus& scheme : kSchemes) {
    SCOPED_TRACE(scheme.spec);
    const auto counts = census(scheme.spec);
    for (int k = 1; k < kRounds; ++k) {
      std::printf("census %-26s round %d: >=64KiB allocations %llu "
                  "(codec %llu)\n",
                  scheme.spec, k,
                  static_cast<unsigned long long>(counts[k].total),
                  static_cast<unsigned long long>(counts[k].codec));
      EXPECT_EQ(counts[k].codec, 0u)
          << "round " << k << ": the codec allocated a large buffer";
      EXPECT_EQ(counts[k].total, scheme.round_total)
          << "round " << k << ": the whole round's count moved";
    }
  }
}

TEST(AllocCensus, CounterSeesLargeAllocations) {
  // The census is vacuous if the replacement is not linked in.
  g_large.store(0);
  g_counting.store(true);
  auto big = std::make_unique<std::byte[]>(kLarge);
  auto small = std::make_unique<std::byte[]>(kLarge - 1);
  g_counting.store(false);
  EXPECT_EQ(g_large.load(), 1u);
}

}  // namespace
}  // namespace gcs::core
