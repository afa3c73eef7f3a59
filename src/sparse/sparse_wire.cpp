#include "sparse/sparse_wire.h"

#include <algorithm>

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

void scatter_add_sparse_fp16(std::span<const std::byte> data,
                             std::span<float> acc) {
  ByteReader r(data);
  const auto count = r.get<std::uint32_t>();
  const auto idx = r.get_span<std::uint32_t>(count);
  const auto halves = r.get_span<std::uint16_t>(count);
  const auto& backend = kernels::active();
  constexpr std::size_t kChunk = 4096;
  float vals[kChunk];
  for (std::size_t i = 0; i < count; i += kChunk) {
    const std::size_t n = std::min<std::size_t>(kChunk, count - i);
    backend.fp16_to_fp32(halves.data() + i, n, vals);
    for (std::size_t j = 0; j < n; ++j) {
      GCS_CHECK(idx[i + j] < acc.size());
      acc[idx[i + j]] += vals[j];
    }
  }
}

ByteBuffer encode_sparse_delta16(const SparseVector& v) {
  // Expand into (delta, value) entries, inserting zero-valued padding
  // entries whenever a gap exceeds the 16-bit delta range.
  std::vector<std::uint16_t> deltas;
  std::vector<std::uint16_t> half_values;
  std::uint32_t prev = 0;
  bool first = true;
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::uint32_t gap = first ? v.indices[i] : v.indices[i] - prev;
    first = false;
    while (gap > 0xFFFFu) {
      prev += 0xFFFFu;
      deltas.push_back(0xFFFFu);
      half_values.push_back(float_to_half_bits(0.0f));
      gap -= 0xFFFFu;
    }
    prev = v.indices[i];
    deltas.push_back(static_cast<std::uint16_t>(gap));
    half_values.push_back(float_to_half_bits(v.values[i]));
  }
  ByteBuffer out;
  ByteWriter w(out);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(deltas.size()));
  w.put_span<std::uint16_t>(deltas);
  w.put_span<std::uint16_t>(half_values);
  return out;
}

SparseVector decode_sparse_delta16(std::span<const std::byte> data) {
  ByteReader r(data);
  const auto count = r.get<std::uint32_t>();
  const auto deltas = r.get_span<std::uint16_t>(count);
  const auto halves = r.get_span<std::uint16_t>(count);
  SparseVector v;
  v.indices.reserve(count);
  v.values.reserve(count);
  std::uint32_t pos = 0;
  bool first = true;
  for (std::uint32_t i = 0; i < count; ++i) {
    pos = first ? deltas[i] : pos + deltas[i];
    first = false;
    const float value = half_bits_to_float(halves[i]);
    // Zero-valued entries are the gap-padding the encoder inserts; they
    // are no-ops for aggregation, so decode drops them. (A genuine zero
    // coordinate is likewise harmless to drop.)
    if (value == 0.0f) continue;
    if (!v.indices.empty() && v.indices.back() == pos) {
      v.values.back() += value;
    } else {
      v.indices.push_back(pos);
      v.values.push_back(value);
    }
  }
  return v;
}

void scatter_add(const SparseVector& v, std::span<float> acc) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    GCS_CHECK(v.indices[i] < acc.size());
    acc[v.indices[i]] += v.values[i];
  }
}

SparseVector merge_sum(const SparseVector& a, const SparseVector& b) {
  SparseVector out;
  out.indices.reserve(a.size() + b.size());
  out.values.reserve(a.size() + b.size());
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    const bool take_a =
        j >= b.size() || (i < a.size() && a.indices[i] <= b.indices[j]);
    const bool take_b =
        i >= a.size() || (j < b.size() && b.indices[j] <= a.indices[i]);
    if (take_a && take_b) {
      out.indices.push_back(a.indices[i]);
      out.values.push_back(a.values[i] + b.values[j]);
      ++i;
      ++j;
    } else if (take_a) {
      out.indices.push_back(a.indices[i]);
      out.values.push_back(a.values[i]);
      ++i;
    } else {
      out.indices.push_back(b.indices[j]);
      out.values.push_back(b.values[j]);
      ++j;
    }
  }
  return out;
}

}  // namespace gcs
