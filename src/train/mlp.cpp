#include "train/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/rng.h"
#include "kernels/kernels.h"

namespace gcs::train {
namespace {

ModelLayout make_mlp_layout(const std::vector<std::size_t>& dims) {
  GCS_CHECK(dims.size() >= 2);
  std::vector<LayerSpec> layers;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    layers.push_back({"w" + std::to_string(l), dims[l + 1], dims[l]});
    layers.push_back({"b" + std::to_string(l), dims[l + 1], 1});
  }
  return ModelLayout(std::move(layers));
}

}  // namespace

double EvalResult::perplexity() const noexcept { return std::exp(mean_loss); }

MlpModel::MlpModel(std::vector<std::size_t> dims, std::uint64_t seed)
    : dims_(std::move(dims)), layout_(make_mlp_layout(dims_)) {
  params_.resize(layout_.total_size());
  Rng rng(seed);
  for (std::size_t l = 0; l + 1 < dims_.size(); ++l) {
    const std::size_t w_idx = 2 * l;
    auto w = params_.slice(layout_.offset(w_idx), layout_.layer(w_idx).size());
    const float he =
        std::sqrt(2.0f / static_cast<float>(dims_[l]));
    for (auto& v : w) v = he * static_cast<float>(rng.next_gaussian());
    // biases stay zero
  }
}

double MlpModel::forward(const Batch& batch) {
  const std::size_t layers = dims_.size() - 1;
  const std::size_t bsz = batch.batch;
  GCS_CHECK(batch.features == dims_[0]);
  acts_.resize(layers + 1);
  acts_[0].assign(batch.x.begin(), batch.x.end());

  // The dense layers run on the kernel layer (a pinned fold, so the
  // logits are the same bits on every backend).
  const auto& k = kernels::active();
  for (std::size_t l = 0; l < layers; ++l) {
    const std::size_t in = dims_[l];
    const std::size_t out = dims_[l + 1];
    const float* w = params_.data() + layout_.offset(2 * l);
    const float* b = params_.data() + layout_.offset(2 * l + 1);
    acts_[l + 1].resize(bsz * out);  // every entry is written below
    float* dst = acts_[l + 1].data();
    k.dense_forward(w, b, acts_[l].data(), bsz, in, out, dst);
    if (l + 1 < layers) {
      for (std::size_t i = 0; i < bsz * out; ++i) {
        dst[i] = std::max(dst[i], 0.0f);
      }
    }
  }

  // Softmax + CE on the logits in acts_[layers].
  const std::size_t classes = dims_.back();
  probs_.assign(bsz * classes, 0.0f);
  double loss = 0.0;
  for (std::size_t s = 0; s < bsz; ++s) {
    const float* z = acts_[layers].data() + s * classes;
    float* p = probs_.data() + s * classes;
    float zmax = z[0];
    for (std::size_t c = 1; c < classes; ++c) zmax = std::max(zmax, z[c]);
    double denom = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      const double e = std::exp(static_cast<double>(z[c] - zmax));
      p[c] = static_cast<float>(e);
      denom += e;
    }
    const auto inv = static_cast<float>(1.0 / denom);
    for (std::size_t c = 0; c < classes; ++c) p[c] *= inv;
    const int label = batch.y[s];
    GCS_CHECK(label >= 0 && static_cast<std::size_t>(label) < classes);
    loss += -std::log(std::max(static_cast<double>(p[label]), 1e-12));
  }
  return loss / static_cast<double>(bsz);
}

double MlpModel::forward_backward(const Batch& batch, std::span<float> grad) {
  GCS_CHECK(grad.size() == dimension());
  const double loss = forward(batch);

  const std::size_t layers = dims_.size() - 1;
  const std::size_t bsz = batch.batch;
  const std::size_t classes = dims_.back();
  const float inv_b = 1.0f / static_cast<float>(bsz);

  std::fill(grad.begin(), grad.end(), 0.0f);
  // The element-wise updates y += a * x run on the kernel layer's axpy.
  const auto& k = kernels::active();

  // delta at the top: (p - onehot(y)) / B.
  delta_.assign(bsz * classes, 0.0f);
  for (std::size_t s = 0; s < bsz; ++s) {
    const float* p = probs_.data() + s * classes;
    float* dl = delta_.data() + s * classes;
    for (std::size_t c = 0; c < classes; ++c) dl[c] = p[c] * inv_b;
    dl[batch.y[s]] -= inv_b;
  }

  for (std::size_t l = layers; l-- > 0;) {
    const std::size_t in = dims_[l];
    const std::size_t out = dims_[l + 1];
    float* gw = grad.data() + layout_.offset(2 * l);
    float* gb = grad.data() + layout_.offset(2 * l + 1);
    const float* w = params_.data() + layout_.offset(2 * l);
    const float* a = acts_[l].data();

    // Weight/bias gradients: gw[o, i] += delta[s, o] * a[s, i].
    for (std::size_t s = 0; s < bsz; ++s) {
      const float* d = delta_.data() + s * out;
      const float* x = a + s * in;
      for (std::size_t o = 0; o < out; ++o) {
        const float dso = d[o];
        if (dso == 0.0f) continue;
        gb[o] += dso;
        k.axpy(dso, x, in, gw + o * in);
      }
    }

    if (l == 0) break;
    // delta_next[s, i] = sum_o delta[s, o] * w[o, i], masked by ReLU'.
    delta_next_.assign(bsz * in, 0.0f);
    for (std::size_t s = 0; s < bsz; ++s) {
      const float* d = delta_.data() + s * out;
      float* dn = delta_next_.data() + s * in;
      for (std::size_t o = 0; o < out; ++o) {
        const float dso = d[o];
        if (dso == 0.0f) continue;
        k.axpy(dso, w + o * in, in, dn);
      }
      const float* act = a + s * in;
      for (std::size_t i = 0; i < in; ++i) {
        if (act[i] <= 0.0f) dn[i] = 0.0f;  // ReLU derivative
      }
    }
    delta_.swap(delta_next_);
  }
  return loss;
}

EvalResult MlpModel::evaluate(const Batch& batch) {
  const double loss = forward(batch);
  const std::size_t classes = dims_.back();
  std::size_t correct = 0;
  for (std::size_t s = 0; s < batch.batch; ++s) {
    const float* p = probs_.data() + s * classes;
    std::size_t best = 0;
    for (std::size_t c = 1; c < classes; ++c) {
      if (p[c] > p[best]) best = c;
    }
    if (static_cast<int>(best) == batch.y[s]) ++correct;
  }
  EvalResult result;
  result.mean_loss = loss;
  result.accuracy =
      static_cast<double>(correct) / static_cast<double>(batch.batch);
  return result;
}

}  // namespace gcs::train
