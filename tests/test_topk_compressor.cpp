// Tests for core/topk_compressor: selection semantics, wire budget
// (b = 48K/d), all-gather aggregation, and error feedback across rounds.
#include "core/topk_compressor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/vnmse.h"
#include "kernels/kernels.h"
#include "numeric/half.h"

namespace gcs::core {
namespace {

std::vector<std::vector<float>> random_grads(int n, std::size_t d,
                                             std::uint64_t seed) {
  std::vector<std::vector<float>> grads(n, std::vector<float>(d));
  for (int w = 0; w < n; ++w) {
    Rng rng(derive_seed(seed, w));
    for (auto& v : grads[w]) v = static_cast<float>(rng.next_gaussian());
  }
  return grads;
}

std::vector<std::span<const float>> views_of(
    const std::vector<std::vector<float>>& grads) {
  std::vector<std::span<const float>> views;
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());
  return views;
}

TEST(TopKConfig, KForBitsMatchesPaperFormula) {
  // b = 48 K / d  =>  K = d b / 48.
  EXPECT_EQ(TopKConfig::k_for_bits(48000, 8.0), 8000u);
  EXPECT_EQ(TopKConfig::k_for_bits(48000, 0.5), 500u);
  // Delta format: 32 bits per entry.
  EXPECT_EQ(TopKConfig::k_for_bits(32000, 2.0, true), 2000u);
  EXPECT_GE(TopKConfig::k_for_bits(10, 0.001), 1u);  // clamped to >= 1
}

TEST(TopK, PathIsAllGather) {
  TopKConfig config;
  config.dimension = 100;
  config.world_size = 2;
  config.k = 10;
  AggregationPipeline c(make_topk_codec(config));
  EXPECT_EQ(c.codec().path(), AggregationPath::kAllGather);
  EXPECT_EQ(c.codec().name(), "TopK");
  EXPECT_EQ(c.codec().world_size(), 2);
}

TEST(TopK, MeasuredBitsMatchFormula) {
  TopKConfig config;
  config.dimension = 4800;
  config.world_size = 4;
  config.k = 400;  // b = 48*400/4800 = 4 bits/coordinate
  config.error_feedback = false;
  AggregationPipeline c(make_topk_codec(config));
  const auto grads = random_grads(4, 4800, 1);
  std::vector<float> out(4800);
  const auto views = views_of(grads);
  const auto stats = c.aggregate(views, out, 0);
  // + the 4-byte count header (amortizes away at paper scale).
  EXPECT_NEAR(stats.bits_per_coordinate(4800), 4.0, 0.05);
}

TEST(TopK, AggregateIsUnionOfPerWorkerSelections) {
  // With one dominant coordinate per worker, the aggregate holds each
  // worker's value at its own hot index.
  TopKConfig config;
  config.dimension = 40;
  config.world_size = 2;
  config.k = 1;
  config.error_feedback = false;
  AggregationPipeline c(make_topk_codec(config));
  std::vector<std::vector<float>> grads(2, std::vector<float>(40, 0.01f));
  grads[0][3] = 8.0f;
  grads[1][17] = -9.0f;
  std::vector<float> out(40);
  const auto views = views_of(grads);
  c.aggregate(views, out, 0);
  EXPECT_EQ(out[3], 8.0f);
  EXPECT_EQ(out[17], -9.0f);
  for (std::size_t i = 0; i < 40; ++i) {
    if (i != 3 && i != 17) EXPECT_EQ(out[i], 0.0f) << i;
  }
}

TEST(TopK, OverlappingSelectionsSum) {
  TopKConfig config;
  config.dimension = 10;
  config.world_size = 3;
  config.k = 1;
  config.error_feedback = false;
  AggregationPipeline c(make_topk_codec(config));
  std::vector<std::vector<float>> grads(3, std::vector<float>(10, 0.0f));
  for (auto& g : grads) g[5] = 2.0f;
  std::vector<float> out(10);
  const auto views = views_of(grads);
  c.aggregate(views, out, 0);
  EXPECT_EQ(out[5], 6.0f);
}

TEST(TopK, ErrorFeedbackRecoversDroppedMass) {
  // A coordinate too small to be selected in round 1 accumulates in the
  // memory and eventually gets transmitted.
  TopKConfig config;
  config.dimension = 4;
  config.world_size = 1;
  config.k = 1;
  config.error_feedback = true;
  AggregationPipeline c(make_topk_codec(config));
  // grad: [1.0, 0.6, 0, 0] each round; k=1 keeps index 0 in round 1;
  // round 2's compensated vector is [1.0, 1.2, 0, 0] -> index 1 wins.
  std::vector<std::vector<float>> grads(1, {1.0f, 0.6f, 0.0f, 0.0f});
  std::vector<float> out(4);
  const auto views = views_of(grads);
  c.aggregate(views, out, 0);
  EXPECT_GT(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
  c.aggregate(views, out, 1);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_NEAR(out[1], 1.2f, 1e-2);
}

TEST(TopK, EfReducesLongRunError) {
  // Across many rounds, EF keeps the *cumulative* aggregate close to the
  // cumulative gradient sum; without EF the small coordinates are lost
  // forever.
  const std::size_t d = 256;
  TopKConfig with_ef{d, 2, 16, true, false};
  TopKConfig no_ef{d, 2, 16, false, false};
  AggregationPipeline c_ef(make_topk_codec(with_ef));
  AggregationPipeline c_no(make_topk_codec(no_ef));
  std::vector<double> cum_true(d, 0.0), cum_ef(d, 0.0), cum_no(d, 0.0);
  std::vector<float> out(d);
  for (int r = 0; r < 30; ++r) {
    auto grads = random_grads(2, d, 100 + r);
    const auto views = views_of(grads);
    for (std::size_t i = 0; i < d; ++i) {
      cum_true[i] += grads[0][i] + grads[1][i];
    }
    c_ef.aggregate(views, out, r);
    for (std::size_t i = 0; i < d; ++i) cum_ef[i] += out[i];
    c_no.aggregate(views, out, r);
    for (std::size_t i = 0; i < d; ++i) cum_no[i] += out[i];
  }
  double err_ef = 0.0, err_no = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    err_ef += (cum_ef[i] - cum_true[i]) * (cum_ef[i] - cum_true[i]);
    err_no += (cum_no[i] - cum_true[i]) * (cum_no[i] - cum_true[i]);
  }
  EXPECT_LT(err_ef, err_no * 0.6);
}

TEST(TopK, DeltaFormatProducesSameAggregateCheaper) {
  const std::size_t d = 2048;
  TopKConfig plain{d, 2, 128, false, false};
  TopKConfig delta{d, 2, 128, false, true};
  AggregationPipeline c1(make_topk_codec(plain));
  AggregationPipeline c2(make_topk_codec(delta));
  const auto grads = random_grads(2, d, 9);
  const auto views = views_of(grads);
  std::vector<float> out1(d), out2(d);
  const auto s1 = c1.aggregate(views, out1, 0);
  const auto s2 = c2.aggregate(views, out2, 0);
  EXPECT_EQ(out1, out2);
  EXPECT_LT(s2.payload_bytes, s1.payload_bytes);
}

TEST(TopK, ResetClearsMemory) {
  TopKConfig config{8, 1, 1, true, false};
  AggregationPipeline c(make_topk_codec(config));
  std::vector<std::vector<float>> grads(1, {1.0f, 0.9f, 0, 0, 0, 0, 0, 0});
  std::vector<float> out(8);
  const auto views = views_of(grads);
  c.aggregate(views, out, 0);
  c.codec().reset();
  // After reset the same input picks index 0 again (no residual boost).
  c.aggregate(views, out, 1);
  EXPECT_GT(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
}

TEST(TopK, MoreBitsLowerVnmse) {
  const std::size_t d = 4096;
  double prev = 1e9;
  for (double b : {0.5, 2.0, 8.0}) {
    TopKConfig config{d, 4, TopKConfig::k_for_bits(d, b), false, false};
    AggregationPipeline c(make_topk_codec(config));
    const auto grads = random_grads(4, d, 77);
    const auto views = views_of(grads);
    std::vector<float> out(d);
    c.aggregate(views, out, 0);
    const double err =
        vnmse(out, std::span<const std::span<const float>>(views));
    EXPECT_LT(err, prev) << b;
    prev = err;
  }
}


// Hostile gathered payloads. A peer's payload is untrusted bytes, and
// TopK scatters the gathered payloads in finish(), after the elastic
// commit barrier, so absorb_gathered must reject a malformed one before
// anything is committed. Every case either throws gcs::Error, leaving the
// output and every EF memory bit-unchanged and the codec able to rerun the
// round as if the payload had never arrived, or is accepted and sums to
// exactly the sequential rank-order scatter-add of the payloads' entries.

constexpr std::size_t kHostileDim = 5000;
constexpr int kHostileWorld = 3;
constexpr std::size_t kHeader = sizeof(std::uint32_t);

template <typename T>
T read_at(const ByteBuffer& p, std::size_t offset) {
  T v;
  std::memcpy(&v, p.data() + offset, sizeof(T));
  return v;
}

template <typename T>
void write_at(ByteBuffer& p, std::size_t offset, T v) {
  std::memcpy(p.data() + offset, &v, sizeof(T));
}

std::uint32_t count_of(const ByteBuffer& p) {
  return read_at<std::uint32_t>(p, 0);
}

/// Plain format: [count:u32][indices:u32 * count][values:fp16 * count].
std::size_t plain_index_at(std::size_t j) {
  return kHeader + j * sizeof(std::uint32_t);
}

/// Delta format: [count:u32][deltas:u16 * count][values:fp16 * count].
std::size_t delta_at(std::size_t j) {
  return kHeader + j * sizeof(std::uint16_t);
}

/// The sequential rank-order sum the payloads stand for, entry by entry:
/// plain entries add in wire order; delta entries walk their running
/// positions, drop zero values (the gap padding) and merge consecutive
/// entries at one position before adding, as the delta decode defines.
std::vector<float> sequential_sum(const std::vector<ByteBuffer>& payloads,
                                  bool delta) {
  std::vector<float> out(kHostileDim, 0.0f);
  for (const auto& p : payloads) {
    const std::size_t count = count_of(p);
    const std::size_t values =
        kHeader + count * (delta ? sizeof(std::uint16_t)
                                 : sizeof(std::uint32_t));
    const auto value = [&](std::size_t j) {
      return half_bits_to_float(
          read_at<std::uint16_t>(p, values + j * sizeof(std::uint16_t)));
    };
    if (!delta) {
      for (std::size_t j = 0; j < count; ++j) {
        out.at(read_at<std::uint32_t>(p, plain_index_at(j))) += value(j);
      }
      continue;
    }
    std::size_t pos = 0;
    bool pending = false;
    std::size_t run_pos = 0;
    float run = 0.0f;
    for (std::size_t j = 0; j < count; ++j) {
      pos += read_at<std::uint16_t>(p, delta_at(j));
      const float v = value(j);
      if (v == 0.0f) continue;
      if (pending && run_pos == pos) {
        run += v;
        continue;
      }
      if (pending) out.at(run_pos) += run;
      pending = true;
      run_pos = pos;
      run = v;
    }
    if (pending) out.at(run_pos) += run;
  }
  return out;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<std::vector<float>> memories_of(const SchemeCodec& codec) {
  std::vector<std::vector<float>> m;
  for (int w = 0; w < kHostileWorld; ++w) {
    const auto mem = codec.ef_memory(w);
    m.emplace_back(mem.begin(), mem.end());
  }
  return m;
}

/// One untampered round driven stage by stage; returns its output.
std::vector<float> clean_round(SchemeCodec& codec,
                               const std::vector<std::vector<float>>& grads,
                               std::uint64_t round) {
  const auto views = views_of(grads);
  auto session = codec.begin_round(views, round);
  WireStage stage;
  std::vector<ByteBuffer> payloads(kHostileWorld);
  while (session->next_stage(stage)) {
    for (int w = 0; w < kHostileWorld; ++w) {
      payloads[static_cast<std::size_t>(w)] = session->encode(w);
    }
    session->absorb_gathered(payloads);
  }
  std::vector<float> out(kHostileDim);
  RoundStats stats;
  session->finish(out, stats);
  return out;
}

struct Tamper {
  const char* name;
  bool throws;
  std::function<void(ByteBuffer&)> apply;
};

void run_hostile(bool delta, const Tamper& tamper) {
  // k = 65 puts the last plain entry inside an 8-entry vector group of
  // the AVX2 index check (its groups start at entry 1), not in a tail.
  const TopKConfig config{kHostileDim, kHostileWorld, 65, true, delta};
  auto codec = make_topk_codec(config);
  // A twin that never sees a hostile payload: the state to compare with.
  auto twin = make_topk_codec(config);
  const auto grads0 = random_grads(kHostileWorld, kHostileDim, 41);
  const auto grads1 = random_grads(kHostileWorld, kHostileDim, 42);
  (void)clean_round(*codec, grads0, 0);  // residuals in every memory
  (void)clean_round(*twin, grads0, 0);
  const auto memories_before = memories_of(*codec);

  const auto views = views_of(grads1);
  auto session = codec->begin_round(views, 1);
  WireStage stage;
  ASSERT_TRUE(session->next_stage(stage));
  std::vector<ByteBuffer> payloads(kHostileWorld);
  for (int w = 0; w < kHostileWorld; ++w) {
    payloads[static_cast<std::size_t>(w)] = session->encode(w);
  }
  tamper.apply(payloads[1]);
  const std::vector<float> sentinel(kHostileDim, -7.5f);
  std::vector<float> out = sentinel;
  RoundStats stats;
  if (tamper.throws) {
    EXPECT_THROW(session->absorb_gathered(payloads), Error);
    // Nothing was absorbed, so the round cannot finish either.
    EXPECT_THROW(session->finish(out, stats), Error);
    EXPECT_TRUE(same_bits(out, sentinel));
    session.reset();
    const auto memories_after = memories_of(*codec);
    for (int w = 0; w < kHostileWorld; ++w) {
      EXPECT_TRUE(same_bits(memories_after[static_cast<std::size_t>(w)],
                            memories_before[static_cast<std::size_t>(w)]))
          << "worker " << w;
    }
    // The retried round is the one that never met the hostile payload.
    EXPECT_TRUE(same_bits(clean_round(*codec, grads1, 1),
                          clean_round(*twin, grads1, 1)));
  } else {
    const auto want = sequential_sum(payloads, delta);
    session->absorb_gathered(payloads);
    EXPECT_FALSE(session->next_stage(stage));
    session->finish(out, stats);
    EXPECT_TRUE(same_bits(out, want));
    // EF keeps what each worker did not send itself; a peer's bytes
    // cannot reach it.
    (void)clean_round(*twin, grads1, 1);
  }
  const auto memories = memories_of(*codec);
  const auto twin_memories = memories_of(*twin);
  for (int w = 0; w < kHostileWorld; ++w) {
    EXPECT_TRUE(same_bits(memories[static_cast<std::size_t>(w)],
                          twin_memories[static_cast<std::size_t>(w)]))
        << "worker " << w;
  }
}

void run_hostile_cases(bool delta, const std::vector<Tamper>& cases) {
  std::vector<const char*> backends{"scalar"};
  if (kernels::avx2_supported()) backends.push_back("avx2");
  for (const char* backend : backends) {
    kernels::force_backend_for_testing(backend);
    for (const auto& tamper : cases) {
      SCOPED_TRACE(std::string(backend) + ": " + tamper.name);
      run_hostile(delta, tamper);
    }
    kernels::force_backend_for_testing(nullptr);
  }
}

/// Cases both formats share: the count header against the payload size.
std::vector<Tamper> header_cases() {
  return {
      {"count one past the payload", true,
       [](ByteBuffer& p) { write_at(p, 0, count_of(p) + 1); }},
      {"count far past the payload", true,
       [](ByteBuffer& p) { write_at<std::uint32_t>(p, 0, 0xFFFFFFFFu); }},
      {"count one short of the payload", true,
       [](ByteBuffer& p) { write_at(p, 0, count_of(p) - 1); }},
      {"truncated header", true, [](ByteBuffer& p) { p.resize(2); }},
      {"empty payload", true, [](ByteBuffer& p) { p.clear(); }},
      {"no entries", false,
       [](ByteBuffer& p) {
         p.resize(kHeader);
         write_at<std::uint32_t>(p, 0, 0);
       }},
  };
}

TEST(TopKHostile, PlainIndexPayloads) {
  auto cases = header_cases();
  const auto swap_entries = [](ByteBuffer& p, std::size_t a, std::size_t b) {
    const std::size_t count = count_of(p);
    const std::size_t values = plain_index_at(count);
    const auto ia = read_at<std::uint32_t>(p, plain_index_at(a));
    const auto ib = read_at<std::uint32_t>(p, plain_index_at(b));
    write_at(p, plain_index_at(a), ib);
    write_at(p, plain_index_at(b), ia);
    const auto va = read_at<std::uint16_t>(p, values + 2 * a);
    const auto vb = read_at<std::uint16_t>(p, values + 2 * b);
    write_at(p, values + 2 * a, vb);
    write_at(p, values + 2 * b, va);
  };
  cases.push_back({"index equal to d", true, [](ByteBuffer& p) {
                     write_at(p, plain_index_at(count_of(p) / 2),
                              static_cast<std::uint32_t>(kHostileDim));
                   }});
  cases.push_back({"index 2^32 - 1", true, [](ByteBuffer& p) {
                     write_at<std::uint32_t>(p, plain_index_at(0),
                                             0xFFFFFFFFu);
                   }});
  cases.push_back({"last index equal to d", true, [](ByteBuffer& p) {
                     write_at(p, plain_index_at(count_of(p) - 1),
                              static_cast<std::uint32_t>(kHostileDim));
                   }});
  cases.push_back({"duplicate index", false, [](ByteBuffer& p) {
                     write_at(p, plain_index_at(1),
                              read_at<std::uint32_t>(p, plain_index_at(0)));
                   }});
  cases.push_back({"one index everywhere", false, [](ByteBuffer& p) {
                     const auto first =
                         read_at<std::uint32_t>(p, plain_index_at(0));
                     for (std::size_t j = 0; j < count_of(p); ++j) {
                       write_at(p, plain_index_at(j), first);
                     }
                   }});
  cases.push_back({"descending indices", false, [swap_entries](ByteBuffer& p) {
                     const std::size_t count = count_of(p);
                     for (std::size_t j = 0; j < count / 2; ++j) {
                       swap_entries(p, j, count - 1 - j);
                     }
                   }});
  cases.push_back({"one pair out of order", false,
                   [swap_entries](ByteBuffer& p) { swap_entries(p, 3, 4); }});
  run_hostile_cases(false, cases);
}

TEST(TopKHostile, DeltaIndexPayloads) {
  // Deltas are unsigned, so positions cannot descend in this format; a
  // zero delta repeats the previous position.
  auto cases = header_cases();
  const auto last_position = [](const ByteBuffer& p) {
    std::size_t pos = 0;
    for (std::size_t j = 0; j < count_of(p); ++j) {
      pos += read_at<std::uint16_t>(p, delta_at(j));
    }
    return pos;
  };
  cases.push_back({"position equal to d", true, [last_position](ByteBuffer& p) {
                     const std::size_t last = count_of(p) - 1;
                     const auto gap = read_at<std::uint16_t>(p, delta_at(last));
                     write_at(p, delta_at(last),
                              static_cast<std::uint16_t>(
                                  gap + kHostileDim - last_position(p)));
                   }});
  cases.push_back({"first delta past d", true, [](ByteBuffer& p) {
                     write_at(p, delta_at(0),
                              static_cast<std::uint16_t>(kHostileDim + 1));
                   }});
  cases.push_back({"every delta at its maximum", true, [](ByteBuffer& p) {
                     for (std::size_t j = 0; j < count_of(p); ++j) {
                       write_at<std::uint16_t>(p, delta_at(j), 0xFFFFu);
                     }
                   }});
  cases.push_back({"duplicate position", false, [](ByteBuffer& p) {
                     write_at<std::uint16_t>(p, delta_at(1), 0);
                   }});
  cases.push_back({"one position everywhere", false, [](ByteBuffer& p) {
                     for (std::size_t j = 1; j < count_of(p); ++j) {
                       write_at<std::uint16_t>(p, delta_at(j), 0);
                     }
                   }});
  run_hostile_cases(true, cases);
}

}  // namespace
}  // namespace gcs::core
