#include "sparse/sparse_wire.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/check.h"
#include "kernels/kernels.h"

namespace gcs {

SparseVector extract_sparse(std::span<const float> x,
                            std::span<const std::uint32_t> indices) {
  SparseVector v;
  v.indices.assign(indices.begin(), indices.end());
  v.values.resize(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    GCS_CHECK(indices[i] < x.size());
    v.values[i] = x[indices[i]];
  }
  return v;
}

ByteBuffer encode_sparse_fp16(const SparseVector& v) {
  ByteBuffer out;
  ByteWriter w(out);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(v.size()));
  w.put_span<std::uint32_t>(v.indices);
  for (float value : v.values) w.put<std::uint16_t>(float_to_half_bits(value));
  return out;
}

SparseVector decode_sparse_fp16(std::span<const std::byte> data) {
  ByteReader r(data);
  const auto count = r.get<std::uint32_t>();
  SparseVector v;
  const auto idx = r.get_span<std::uint32_t>(count);
  v.indices.assign(idx.begin(), idx.end());
  v.values.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    v.values[i] = half_bits_to_float(r.get<std::uint16_t>());
  }
  return v;
}

ByteBuffer encode_sparse_fp16_gather(std::span<const float> x,
                                     std::span<const std::uint32_t> indices) {
  ByteBuffer out;
  encode_sparse_fp16_gather(x, indices, out);
  return out;
}

void encode_sparse_fp16_gather(std::span<const float> x,
                               std::span<const std::uint32_t> indices,
                               ByteBuffer& out) {
  for (std::uint32_t idx : indices) GCS_CHECK(idx < x.size());
  out.clear();
  out.reserve(sizeof(std::uint32_t) +
              indices.size() * (sizeof(std::uint32_t) + sizeof(std::uint16_t)));
  ByteWriter w(out);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(indices.size()));
  w.put_span<std::uint32_t>(indices);
  const std::size_t val_off = out.size();
  out.resize(val_off + indices.size() * sizeof(std::uint16_t));
  kernels::active().gather_fp32_to_fp16(
      x.data(), indices.data(), indices.size(),
      reinterpret_cast<std::uint16_t*>(out.data() + val_off));
}

SparseFp16View view_sparse_fp16(std::span<const std::byte> data,
                                std::size_t dimension) {
  ByteReader r(data);
  const auto count = r.get<std::uint32_t>();
  SparseFp16View v;
  v.indices = r.get_span<std::uint32_t>(count);
  v.halves = r.get_span<std::uint16_t>(count);
  if (!r.exhausted()) {
    throw Error("sparse payload: " + std::to_string(r.remaining()) +
                " bytes past its " + std::to_string(count) + " entries");
  }
  // Every encoder writes ascending indices, so one vector pass settles
  // the common case; otherwise an entry is out of range, or merely out of
  // order (which sums in entry order).
  if (kernels::active().ascending_prefix(v.indices.data(), count,
                                         dimension) != count) {
    for (const std::uint32_t i : v.indices) {
      if (i >= dimension) {
        throw Error("sparse payload: index " + std::to_string(i) +
                    " out of range for dimension " +
                    std::to_string(dimension));
      }
    }
  }
  return v;
}

void sum_sparse_fp16(std::span<const SparseFp16View> views,
                     std::span<float> out) {
  const auto& backend = kernels::active();
  std::fill(out.begin(), out.end(), 0.0f);
  for (const auto& v : views) {
    const std::size_t applied =
        backend.scatter_add_fp16(v.indices.data(), v.halves.data(),
                                 v.indices.size(), out.data(), out.size());
    GCS_CHECK_MSG(applied == v.indices.size(),
                  "scatter-add of an unvalidated payload: index "
                      << v.indices[applied] << " >= " << out.size());
  }
}

namespace {

/// Padding entries a gap from the previous index needs: one per full
/// 65535 the gap exceeds the 16-bit delta by.
std::size_t delta16_padding(std::uint32_t gap) noexcept {
  return gap > 0 ? (gap - 1u) / 0xFFFFu : 0u;
}

/// Writes the delta-format payload of strictly increasing `indices` over
/// `out`. `values(first, n, dst)` writes the fp16 bits of entries
/// [first, first + n) to dst; it is called once per run of entries
/// between padding, so a run's values convert in one kernel call.
template <typename Values>
void write_delta16(std::span<const std::uint32_t> indices, Values&& values,
                   ByteBuffer& out) {
  std::size_t entries = indices.size();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    entries += delta16_padding(i == 0 ? indices[0]
                                      : indices[i] - indices[i - 1]);
  }
  out.resize(sizeof(std::uint32_t) + entries * 2 * sizeof(std::uint16_t));
  const auto count = static_cast<std::uint32_t>(entries);
  std::memcpy(out.data(), &count, sizeof(count));
  auto* const deltas =
      reinterpret_cast<std::uint16_t*>(out.data() + sizeof(std::uint32_t));
  std::uint16_t* const halves = deltas + entries;
  std::size_t e = 0;
  std::size_t run = 0;  // first index of the run not yet converted
  for (std::size_t i = 0; i < indices.size(); ++i) {
    std::uint32_t gap = i == 0 ? indices[0] : indices[i] - indices[i - 1];
    if (gap > 0xFFFFu) {
      values(run, i - run, halves + e - (i - run));
      run = i;
      while (gap > 0xFFFFu) {
        deltas[e] = 0xFFFFu;
        halves[e] = float_to_half_bits(0.0f);
        ++e;
        gap -= 0xFFFFu;
      }
    }
    deltas[e++] = static_cast<std::uint16_t>(gap);
  }
  values(run, indices.size() - run, halves + e - (indices.size() - run));
}

/// Walks a delta-format payload in wire order and hands `emit(pos, value)`
/// each coordinate the decode keeps: zero values (the gap padding) are
/// dropped, and consecutive kept entries at one position are merged by
/// summing their values first. Positions are validated by
/// check_sparse_delta16, not here.
template <typename Emit>
void walk_delta16(std::span<const std::byte> data, Emit&& emit) {
  ByteReader r(data);
  const auto count = r.get<std::uint32_t>();
  const auto deltas = r.get_span<std::uint16_t>(count);
  const auto halves = r.get_span<std::uint16_t>(count);
  const auto& backend = kernels::active();
  constexpr std::size_t kBlock = 4096;
  float vals[kBlock];
  std::uint32_t pos = 0;
  bool pending = false;
  std::uint32_t run_pos = 0;
  float run_value = 0.0f;
  for (std::size_t b = 0; b < count; b += kBlock) {
    const std::size_t n = std::min<std::size_t>(kBlock, count - b);
    backend.fp16_to_fp32(halves.data() + b, n, vals);
    for (std::size_t j = 0; j < n; ++j) {
      pos = b + j == 0 ? deltas[0] : pos + deltas[b + j];
      const float value = vals[j];
      // Zero-valued entries are the gap padding the encoder inserts; they
      // are no-ops for aggregation, so decode drops them. (A genuine zero
      // coordinate is likewise harmless to drop.)
      if (value == 0.0f) continue;
      if (pending && run_pos == pos) {
        run_value += value;
        continue;
      }
      if (pending) emit(run_pos, run_value);
      pending = true;
      run_pos = pos;
      run_value = value;
    }
  }
  if (pending) emit(run_pos, run_value);
}

}  // namespace

ByteBuffer encode_sparse_delta16(const SparseVector& v) {
  ByteBuffer out;
  write_delta16(
      v.indices,
      [&v](std::size_t first, std::size_t n, std::uint16_t* dst) {
        kernels::active().fp32_to_fp16(v.values.data() + first, n, dst);
      },
      out);
  return out;
}

void encode_sparse_delta16_gather(std::span<const float> x,
                                  std::span<const std::uint32_t> indices,
                                  ByteBuffer& out) {
  for (std::uint32_t idx : indices) GCS_CHECK(idx < x.size());
  // Padding entries across the whole index range number at most
  // x.size() / 65535 + 1, so this bound is never outgrown.
  out.reserve(sizeof(std::uint32_t) +
              (indices.size() + x.size() / 0xFFFFu + 1) * 2 *
                  sizeof(std::uint16_t));
  write_delta16(
      indices,
      [x, indices](std::size_t first, std::size_t n, std::uint16_t* dst) {
        kernels::active().gather_fp32_to_fp16(x.data(),
                                              indices.data() + first, n, dst);
      },
      out);
}

SparseVector decode_sparse_delta16(std::span<const std::byte> data) {
  SparseVector v;
  walk_delta16(data, [&v](std::uint32_t pos, float value) {
    v.indices.push_back(pos);
    v.values.push_back(value);
  });
  return v;
}

void check_sparse_delta16(std::span<const std::byte> data,
                          std::size_t dimension) {
  ByteReader r(data);
  const auto count = r.get<std::uint32_t>();
  const auto deltas = r.get_span<std::uint16_t>(count);
  (void)r.get_span<std::uint16_t>(count);
  if (!r.exhausted()) {
    throw Error("sparse delta payload: " + std::to_string(r.remaining()) +
                " bytes past its " + std::to_string(count) + " entries");
  }
  // Positions only grow, so the last one is the largest; summed in 64
  // bits it cannot wrap back into range.
  std::uint64_t last = 0;
  for (const std::uint16_t delta : deltas) last += delta;
  if (count > 0 && last >= dimension) {
    throw Error("sparse delta payload: position " + std::to_string(last) +
                " out of range for dimension " + std::to_string(dimension));
  }
}

void scatter_add_sparse_delta16(std::span<const std::byte> data,
                                std::span<float> acc) {
  walk_delta16(data, [acc](std::uint32_t pos, float value) {
    GCS_CHECK(pos < acc.size());
    acc[pos] += value;
  });
}

void scatter_add(const SparseVector& v, std::span<float> acc) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    GCS_CHECK(v.indices[i] < acc.size());
    acc[v.indices[i]] += v.values[i];
  }
}

}  // namespace gcs
