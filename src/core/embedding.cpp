#include "core/embedding.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace wf::core {

namespace {

// Normalize in place; returns the pre-normalization norm.
double normalize(std::span<float> v) {
  double norm = 0.0;
  for (const float x : v) norm += static_cast<double>(x) * x;
  norm = std::sqrt(norm);
  const double inv = norm > 1e-12 ? 1.0 / norm : 0.0;
  for (float& x : v) x = static_cast<float>(x * inv);
  return norm;
}

// Backprop through y = r / ||r||: given dL/dy, write dL/dr into grad_r.
void normalization_grad(std::span<const float> y, double raw_norm,
                        std::span<const float> grad_y, std::span<float> grad_r) {
  double dot = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) dot += static_cast<double>(grad_y[i]) * y[i];
  const double inv = raw_norm > 1e-12 ? 1.0 / raw_norm : 0.0;
  for (std::size_t i = 0; i < y.size(); ++i)
    grad_r[i] = static_cast<float>((grad_y[i] - dot * y[i]) * inv);
}

}  // namespace

EmbeddingModel::EmbeddingModel(const EmbeddingConfig& config) : config_(config) {
  std::vector<std::size_t> sizes;
  sizes.push_back(config_.input_dim());
  for (const std::size_t h : config_.hidden) sizes.push_back(h);
  sizes.push_back(config_.embedding_dim);
  net_ = nn::Mlp(sizes, config_.seed);
}

nn::Matrix EmbeddingModel::embed(const nn::Matrix& batch) const {
  const obs::Span span("embed");
  nn::Matrix out = net_.forward_batch(batch);
  util::global_pool().parallel_blocks(0, out.rows(), 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) normalize(out.row(r));
  });
  return out;
}

nn::Matrix EmbeddingModel::embed_dataset(const data::Dataset& dataset) const {
  return embed(dataset.to_matrix());
}

void EmbeddingModel::train_step_contrastive(const nn::Matrix& x, double& loss_acc,
                                            double& correct_acc) {
  const std::size_t rows = x.rows();          // 2 per pair: (a0, b0, a1, b1, ...)
  const std::size_t m = net_.output_dim();
  nn::Matrix& y = train_y_;
  nn::Matrix& grad_y = train_grad_y_;
  std::vector<double>& raw_norms = train_raw_norms_;
  y = net_.forward_batch_cached(x, train_acts_);
  raw_norms.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) raw_norms[r] = normalize(y.row(r));

  grad_y.resize(rows, m);  // zeroed; pairs without loss contribute nothing
  const double margin = config_.margin;
  for (std::size_t p = 0; p + 1 < rows; p += 2) {
    const float* ya = y.data() + p * m;
    const float* yb = y.data() + (p + 1) * m;
    float* ga = grad_y.data() + p * m;
    float* gb = grad_y.data() + (p + 1) * m;
    double d2 = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double diff = static_cast<double>(ya[i]) - yb[i];
      d2 += diff * diff;
    }
    const double d = std::sqrt(d2);
    const bool positive = pair_positive_[p / 2] != 0;

    // Margin-threshold pair prediction for the pair-accuracy statistic.
    const bool predicted_positive = d < margin * 0.5;
    if (predicted_positive == positive) correct_acc += 1.0;

    if (positive) {
      loss_acc += d2;
      for (std::size_t i = 0; i < m; ++i) {
        const float diff = ya[i] - yb[i];
        ga[i] = 2.0f * diff;
        gb[i] = -2.0f * diff;
      }
    } else if (d < margin) {
      const double gap = margin - d;
      loss_acc += gap * gap;
      const double scale = d > 1e-9 ? -2.0 * gap / d : 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const float diff = ya[i] - yb[i];
        ga[i] = static_cast<float>(scale * diff);
        gb[i] = static_cast<float>(-scale * diff);
      }
    }
  }

  // Chain through the normalization row by row, then one batched backward.
  train_grad_raw_.resize(rows, m);
  for (std::size_t r = 0; r < rows; ++r)
    normalization_grad(y.row_span(r), raw_norms[r], grad_y.row_span(r), train_grad_raw_.row(r));
  net_.backward_batch(x, train_acts_, train_grad_raw_);
}

void EmbeddingModel::train_step_triplet(const nn::Matrix& x, double& loss_acc,
                                        double& correct_acc) {
  const std::size_t rows = x.rows();  // 3 per triplet: (a0, p0, n0, a1, ...)
  const std::size_t m = net_.output_dim();
  nn::Matrix& y = train_y_;
  nn::Matrix& grad_y = train_grad_y_;
  std::vector<double>& raw_norms = train_raw_norms_;
  y = net_.forward_batch_cached(x, train_acts_);
  raw_norms.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) raw_norms[r] = normalize(y.row(r));

  grad_y.resize(rows, m);
  for (std::size_t t = 0; t + 2 < rows; t += 3) {
    const float* ya = y.data() + t * m;
    const float* yp = y.data() + (t + 1) * m;
    const float* yn = y.data() + (t + 2) * m;
    double d_ap = 0.0, d_an = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double ap = static_cast<double>(ya[i]) - yp[i];
      const double an = static_cast<double>(ya[i]) - yn[i];
      d_ap += ap * ap;
      d_an += an * an;
    }
    if (d_ap < d_an) correct_acc += 1.0;
    const double loss = d_ap - d_an + config_.margin;
    if (loss <= 0.0) continue;
    loss_acc += loss;
    float* ga = grad_y.data() + t * m;
    float* gp = grad_y.data() + (t + 1) * m;
    float* gn = grad_y.data() + (t + 2) * m;
    for (std::size_t i = 0; i < m; ++i) {
      ga[i] = 2.0f * (yn[i] - yp[i]);
      gp[i] = 2.0f * (yp[i] - ya[i]);
      gn[i] = 2.0f * (ya[i] - yn[i]);
    }
  }

  train_grad_raw_.resize(rows, m);
  for (std::size_t r = 0; r < rows; ++r)
    normalization_grad(y.row_span(r), raw_norms[r], grad_y.row_span(r), train_grad_raw_.row(r));
  net_.backward_batch(x, train_acts_, train_grad_raw_);
}

TrainStats EmbeddingModel::train(data::PairGenerator& pairs) {
  if (pairs.dataset().feature_dim() != config_.input_dim())
    throw std::invalid_argument("EmbeddingModel::train: dataset width != config input_dim");
  const obs::Span span("train");
  util::Stopwatch watch;
  TrainStats stats;
  stats.iterations = config_.train_iterations;

  // Loss/accuracy reported over the trailing window of training.
  const int window = std::max(1, config_.train_iterations / 5);
  double window_loss = 0.0, window_correct = 0.0;
  long window_items = 0;

  const data::Dataset& dataset = pairs.dataset();
  const std::size_t group = config_.objective == Objective::kContrastive ? 2 : 3;
  nn::Matrix batch(static_cast<std::size_t>(config_.batch_pairs) * group,
                   dataset.feature_dim());
  pair_positive_.assign(static_cast<std::size_t>(config_.batch_pairs), 0);

  for (int step = 0; step < config_.train_iterations; ++step) {
    const bool in_window = step >= config_.train_iterations - window;
    double loss = 0.0, correct = 0.0;
    // Draw the step's samples in generator order, then run the whole batch
    // through one GEMM per layer (forward and backward).
    for (int b = 0; b < config_.batch_pairs; ++b) {
      const std::size_t row = static_cast<std::size_t>(b) * group;
      if (config_.objective == Objective::kContrastive) {
        const data::SamplePair pair = pairs.next();
        batch.set_row(row, dataset[pair.a].features);
        batch.set_row(row + 1, dataset[pair.b].features);
        pair_positive_[static_cast<std::size_t>(b)] = pair.positive ? 1 : 0;
      } else {
        const data::SampleTriplet t = pairs.next_triplet();
        batch.set_row(row, dataset[t.anchor].features);
        batch.set_row(row + 1, dataset[t.positive].features);
        batch.set_row(row + 2, dataset[t.negative].features);
      }
    }
    if (config_.objective == Objective::kContrastive)
      train_step_contrastive(batch, loss, correct);
    else
      train_step_triplet(batch, loss, correct);
    net_.adam_step(config_.learning_rate);
    if (in_window) {
      window_loss += loss;
      window_correct += correct;
      window_items += config_.batch_pairs;
    }
  }
  if (window_items > 0) {
    stats.final_loss = window_loss / static_cast<double>(window_items);
    stats.pair_accuracy = window_correct / static_cast<double>(window_items);
  }
  stats.seconds = watch.seconds();
  return stats;
}

}  // namespace wf::core
