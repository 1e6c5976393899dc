#pragma once

#include <vector>

#include "core/embedding_config.hpp"
#include "data/dataset.hpp"
#include "data/pairs.hpp"
#include "nn/mlp.hpp"

namespace wf::core {

struct TrainStats {
  double final_loss = 0.0;     // mean loss over the last training window
  double pair_accuracy = 0.0;  // margin-threshold pair classification
  double seconds = 0.0;
  int iterations = 0;
};

// The siamese embedding network (§IV-A2): maps an encoded trace to a point
// on the unit sphere in R^embedding_dim such that loads of the same page
// land close together. Classification and adaptation then operate purely in
// embedding space — the model itself never needs retraining.
//
// Everything runs batched: every optimizer step forwards/backwards its whole
// pair batch through one GEMM per layer, and embed/embed_dataset do the same
// for inference. One trace is a one-row batch; its embedding is
// bit-identical whatever batch it rides in.
class EmbeddingModel {
 public:
  explicit EmbeddingModel(const EmbeddingConfig& config = {});

  // Run `config.train_iterations` optimizer steps drawing batches from the
  // generator. Calling train() again continues from the current weights.
  TrainStats train(data::PairGenerator& pairs);

  // L2-normalized embedding of every row of `batch` (one encoded trace per
  // row).
  nn::Matrix embed(const nn::Matrix& batch) const;
  nn::Matrix embed_dataset(const data::Dataset& dataset) const;

  const EmbeddingConfig& config() const { return config_; }

  // Underlying network, exposed for wf::io serialization: a loaded model
  // replaces the freshly initialized weights through the mutable accessor.
  const nn::Mlp& net() const { return net_; }
  nn::Mlp& net() { return net_; }

 private:
  // One batched optimizer step: rows of `x` hold the step's samples in pair
  // (a0,b0,a1,b1,...) or triplet (a0,p0,n0,...) order.
  void train_step_contrastive(const nn::Matrix& x, double& loss_acc, double& correct_acc);
  void train_step_triplet(const nn::Matrix& x, double& loss_acc, double& correct_acc);

  EmbeddingConfig config_;
  nn::Mlp net_;
  // Per-step training scratch, reused across the whole schedule.
  nn::Mlp::BatchActivations train_acts_;
  std::vector<unsigned char> pair_positive_;  // per-pair sign of the current step
  nn::Matrix train_y_;                        // normalized embeddings
  nn::Matrix train_grad_y_;                   // dLoss/d(normalized embedding)
  nn::Matrix train_grad_raw_;                 // chained through the normalization
  std::vector<double> train_raw_norms_;
};

}  // namespace wf::core
