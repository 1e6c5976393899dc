#include "nn/mlp.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/simd.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wf::nn {

Mlp::Mlp(const std::vector<std::size_t>& sizes, std::uint64_t seed) {
  if (sizes.size() < 2) throw std::invalid_argument("Mlp: need at least input and output size");
  util::Rng rng(seed);
  layers_.reserve(sizes.size() - 1);
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    Layer layer;
    const std::size_t in = sizes[l], out = sizes[l + 1];
    layer.w = Matrix(out, in);
    layer.b.assign(out, 0.0f);
    // He initialization for the ReLU stack.
    const double scale = std::sqrt(2.0 / static_cast<double>(in));
    for (std::size_t r = 0; r < out; ++r)
      for (std::size_t c = 0; c < in; ++c)
        layer.w(r, c) = static_cast<float>(rng.normal(0.0, scale));
    layer.gw = Matrix(out, in);
    layer.gb.assign(out, 0.0f);
    layer.mw = Matrix(out, in);
    layer.vw = Matrix(out, in);
    layer.mb.assign(out, 0.0f);
    layer.vb.assign(out, 0.0f);
    layers_.push_back(std::move(layer));
  }
}

std::size_t Mlp::input_dim() const { return layers_.empty() ? 0 : layers_.front().w.cols(); }
std::size_t Mlp::output_dim() const { return layers_.empty() ? 0 : layers_.back().w.rows(); }

std::vector<std::size_t> Mlp::layer_sizes() const {
  std::vector<std::size_t> sizes;
  if (layers_.empty()) return sizes;
  sizes.push_back(layers_.front().w.cols());
  for (const Layer& layer : layers_) sizes.push_back(layer.w.rows());
  return sizes;
}

Matrix Mlp::forward_batch(const Matrix& x) const {
  BatchActivations scratch;
  return forward_batch_cached(x, scratch);
}

const Matrix& Mlp::forward_batch_cached(const Matrix& x, BatchActivations& acts) const {
  if (x.cols() != input_dim())
    throw std::invalid_argument("Mlp::forward_batch: input width mismatch");
  acts.post.resize(layers_.size());
  const std::size_t m = x.rows();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const bool last = (l + 1 == layers_.size());
    const Matrix& in = (l == 0) ? x : acts.post[l - 1];
    Matrix& out = acts.post[l];
    const std::size_t width = layer.w.rows();
    if (out.rows() != m || out.cols() != width) out.resize(m, width);
    matmul_transposed(in, layer.w, out);
    // Bias + activation epilogue, row-sharded.
    util::global_pool().parallel_blocks(0, m, 256, [&](std::size_t lo, std::size_t hi) {
      const float* bias = layer.b.data();
      for (std::size_t s = lo; s < hi; ++s) {
        float* row = out.data() + s * width;
        for (std::size_t r = 0; r < width; ++r) {
          const float a = row[r] + bias[r];
          row[r] = last ? a : (a > 0.0f ? a : 0.0f);
        }
      }
    });
  }
  return acts.post.back();
}

void Mlp::backward_batch(const Matrix& x, const BatchActivations& acts,
                         const Matrix& grad_output) {
  const std::size_t m = x.rows();
  if (grad_output.rows() != m || grad_output.cols() != output_dim())
    throw std::invalid_argument("Mlp::backward_batch: grad shape mismatch");
  Matrix grad = grad_output;
  Matrix grad_in;
  for (std::size_t li = layers_.size(); li-- > 0;) {
    Layer& layer = layers_[li];
    const bool last = (li + 1 == layers_.size());
    if (!last) {
      const Matrix& post = acts.post[li];
      util::global_pool().parallel_blocks(0, m, 256, [&](std::size_t lo, std::size_t hi) {
        const std::size_t width = layer.w.rows();
        for (std::size_t s = lo; s < hi; ++s) {
          float* grow = grad.data() + s * width;
          const float* prow = post.data() + s * width;
          for (std::size_t r = 0; r < width; ++r)
            if (prow[r] <= 0.0f) grow[r] = 0.0f;
        }
      });
    }
    const Matrix& input = (li == 0) ? x : acts.post[li - 1];
    // gw += gradᵀ · input; gb += column sums of grad.
    matmul_at_b(grad, input, layer.gw, /*accumulate=*/true);
    for (std::size_t s = 0; s < m; ++s) {
      const float* grow = grad.data() + s * layer.w.rows();
      for (std::size_t r = 0; r < layer.w.rows(); ++r) layer.gb[r] += grow[r];
    }
    if (li > 0) {
      grad_in.resize(m, layer.w.cols());
      matmul(grad, layer.w, grad_in);
      std::swap(grad, grad_in);
    }
  }
  grad_samples_ += static_cast<int>(m);
}

void Mlp::zero_grad() {
  for (Layer& layer : layers_) {
    layer.gw.fill(0.0f);
    layer.gb.assign(layer.gb.size(), 0.0f);
  }
  grad_samples_ = 0;
}

void Mlp::adam_step(double learning_rate) {
  if (grad_samples_ == 0) return;
  ++adam_t_;
  const detail::AdamStep step{learning_rate, 1.0 / static_cast<double>(grad_samples_),
                              1.0 - std::pow(detail::kAdamBeta1, adam_t_),
                              1.0 - std::pow(detail::kAdamBeta2, adam_t_)};
  const detail::AdamFn adam = detail::adam_kernel(simd_mode());
  for (Layer& layer : layers_) {
    // Adam moments track the weight shape for the Mlp's whole life; a drift
    // here (e.g. a load() that skipped the moment reset) would silently
    // corrupt training.
    WF_DCHECK(layer.mw.rows() == layer.w.rows() && layer.mw.cols() == layer.w.cols(),
              "adam_step: moment/weight shape drift");
    adam(layer.w.data(), layer.gw.data(), layer.mw.data(), layer.vw.data(),
         layer.w.rows() * layer.w.cols(), step);
    adam(layer.b.data(), layer.gb.data(), layer.mb.data(), layer.vb.data(), layer.b.size(), step);
  }
  zero_grad();
}

}  // namespace wf::nn
