#include "core/codec.h"

#include <atomic>

#include "common/check.h"

namespace gcs::core {
namespace {

std::atomic<bool> g_scratch_poisoning{false};

}  // namespace

void set_scratch_poisoning_for_testing(bool on) noexcept {
  g_scratch_poisoning.store(on, std::memory_order_relaxed);
}

bool scratch_poisoning() noexcept {
  return g_scratch_poisoning.load(std::memory_order_relaxed);
}

std::string to_string(AggregationPath path) {
  switch (path) {
    case AggregationPath::kAllReduce: return "all-reduce";
    case AggregationPath::kAllGather: return "all-gather";
    case AggregationPath::kParameterServer: return "parameter-server";
  }
  return "?";
}

void CodecRound::encode_into(int worker, ByteBuffer& out) {
  out = encode(worker);
}

void CodecRound::absorb_reduced(const ByteBuffer& /*reduced*/) {
  throw Error("CodecRound: this stage does not take a reduced payload");
}

void CodecRound::absorb_gathered(
    std::span<const ByteBuffer> /*payloads*/) {
  throw Error("CodecRound: this stage does not take gathered payloads");
}

void CodecRound::encode_range(int /*worker*/, std::size_t /*offset*/,
                              std::span<std::byte> /*out*/) {
  throw Error("CodecRound: encode_range unsupported for this stage");
}

SchemeCodecPtr SchemeCodec::remap_workers(
    std::span<const int> /*survivors*/) const {
  throw Error(name() + ": elastic membership (remap_workers) unsupported");
}

HeldWorkers::HeldWorkers(std::span<const std::span<const float>> grads,
                         int world_size, std::size_t dimension)
    : held_(grads.size(), 0) {
  if (grads.size() != static_cast<std::size_t>(world_size)) {
    throw Error("begin_round: " + std::to_string(grads.size()) +
                " gradient spans for a world of " +
                std::to_string(world_size));
  }
  bool any = false;
  for (std::size_t w = 0; w < grads.size(); ++w) {
    if (grads[w].empty()) continue;
    if (grads[w].size() != dimension) {
      throw Error("begin_round: worker " + std::to_string(w) +
                  "'s gradient has " + std::to_string(grads[w].size()) +
                  " coordinates, expected " + std::to_string(dimension));
    }
    held_[w] = 1;
    any = true;
  }
  if (!any) throw Error("begin_round: no worker's gradient is held");
}

void HeldWorkers::require(int worker, const SchemeCodec& codec) const {
  if (worker < 0 || !holds(static_cast<std::size_t>(worker))) {
    throw Error(codec.name() + ": worker " + std::to_string(worker) +
                " is not held by this round session (its gradient was "
                "empty at begin_round)");
  }
}

void require_stage(bool ok, const SchemeCodec& codec, const char* what) {
  if (!ok) throw Error(codec.name() + ": " + what);
}

void check_survivor_set(std::span<const int> survivors, int world_size) {
  if (survivors.empty()) {
    throw Error("remap_workers: empty survivor set");
  }
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    if (survivors[i] < 0 || survivors[i] >= world_size) {
      throw Error("remap_workers: worker " + std::to_string(survivors[i]) +
                  " out of world " + std::to_string(world_size));
    }
    if (i > 0 && survivors[i] <= survivors[i - 1]) {
      throw Error("remap_workers: survivors must be strictly increasing");
    }
  }
}

}  // namespace gcs::core
