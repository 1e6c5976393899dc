#pragma once

#include <cstdint>
#include <vector>

#include "nn/matrix.hpp"

namespace wf::nn {

// Fully connected network with ReLU hidden layers and a linear output,
// trained by explicit backpropagation with an Adam optimizer. Sized for the
// paper's Table-I embedding network (a few hundred inputs, 32-d output) —
// no BLAS beyond the in-repo blocked GEMM, no autograd, fully deterministic
// given the init seed and independent of the thread count.
class Mlp {
 public:
  Mlp() = default;
  // sizes = {input, hidden..., output}.
  Mlp(const std::vector<std::size_t>& sizes, std::uint64_t seed);

  std::size_t input_dim() const;
  std::size_t output_dim() const;

  // Parameter access for serialization/inspection (wf::io). Mutating the
  // weights through these leaves the Adam moments untouched — a reloaded
  // model resumes training with a fresh optimizer state.
  std::size_t n_layers() const { return layers_.size(); }
  std::vector<std::size_t> layer_sizes() const;  // {input, hidden..., output}
  const Matrix& layer_weights(std::size_t l) const { return layers_[l].w; }
  Matrix& layer_weights(std::size_t l) { return layers_[l].w; }
  const std::vector<float>& layer_bias(std::size_t l) const { return layers_[l].b; }
  std::vector<float>& layer_bias(std::size_t l) { return layers_[l].b; }

  // Inference, one GEMM per layer over x (one sample per row). The only
  // forward pass: a single sample is a one-row batch, and every output row
  // depends only on its own input row, so a sample's output is bit-identical
  // whatever batch it rides in.
  Matrix forward_batch(const Matrix& x) const;

  // Batched activation cache for backward_batch: post[l] holds one row per
  // sample.
  struct BatchActivations {
    std::vector<Matrix> post;
  };
  const Matrix& forward_batch_cached(const Matrix& x, BatchActivations& acts) const;

  // Accumulate parameter gradients for a whole batch (one row per sample)
  // via GEMMs: gradients add up in sample order, and a zero gradient entry
  // adds nothing (nn::detail::AxpyRowsFn).
  void backward_batch(const Matrix& x, const BatchActivations& acts, const Matrix& grad_output);

  void zero_grad();
  // Adam step on the averaged accumulated gradients, then clears them. Runs
  // the active SIMD mode's nn::detail::AdamFn, bit-identical in every mode.
  void adam_step(double learning_rate);

 private:
  struct Layer {
    Matrix w;                 // out x in
    std::vector<float> b;     // out
    Matrix gw;                // accumulated gradients
    std::vector<float> gb;
    Matrix mw, vw;            // Adam moments
    std::vector<float> mb, vb;
  };

  std::vector<Layer> layers_;
  int adam_t_ = 0;
  int grad_samples_ = 0;
};

}  // namespace wf::nn
