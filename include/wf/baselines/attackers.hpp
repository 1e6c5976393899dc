#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "baselines/random_forest.hpp"
#include "core/attacker.hpp"
#include "core/knn.hpp"
#include "core/sharded_reference_set.hpp"
#include "data/dataset.hpp"

namespace wf::baselines {

// Table-III forest baseline behind the Attacker interface. The forest
// cannot separate its model from its target set, so re-targeting and
// per-class adaptation are full refits over a retained training corpus —
// exactly the cost structure the paper contrasts with reference swapping.
class ForestAttacker final : public core::Attacker {
 public:
  explicit ForestAttacker(const ForestConfig& config = {})
      : config_(config), forest_(config) {}

  std::string name() const override { return "forest"; }
  core::TrainStats train(const data::Dataset& train) override;
  void set_references(const data::Dataset& references) override;
  std::vector<std::vector<core::RankedLabel>> fingerprint_batch(
      const data::Dataset& traces) const override;
  void adapt(int label, const data::Dataset& fresh) override;
  std::vector<int> target_classes() const override { return train_.classes(); }
  std::unique_ptr<core::Attacker> clone() const override {
    return std::make_unique<ForestAttacker>(*this);
  }
  void save_body(io::Writer& out) const override;
  void load_body(io::Reader& in) override;

  const RandomForest& forest() const { return forest_; }

 private:
  ForestConfig config_;
  RandomForest forest_;
  data::Dataset train_;  // retained: every refit needs the full corpus
};

// k-FP-style feature baseline: k-NN voting directly in the hand-crafted
// summary-feature space (no learned embedding; we rank in raw feature
// space rather than forest-leaf space). Like the adaptive attacker its
// target-set updates are pure reference swaps, but with no metric learned
// over the features.
class FeatureKnnAttacker final : public core::Attacker {
 public:
  // n_shards as in AdaptiveFingerprinter: 0 resolves via
  // ShardedReferenceSet::default_shard_count().
  explicit FeatureKnnAttacker(int k = 40, std::size_t n_shards = 1)
      : references_(/*dim=*/0, n_shards), knn_(k) {}

  std::string name() const override { return "kfp-knn"; }
  core::TrainStats train(const data::Dataset& train) override;
  void set_references(const data::Dataset& references) override;
  std::vector<std::vector<core::RankedLabel>> fingerprint_batch(
      const data::Dataset& traces) const override;
  void adapt(int label, const data::Dataset& fresh) override;
  std::vector<int> target_classes() const override { return references_.classes(); }
  std::unique_ptr<core::Attacker> clone() const override {
    return std::make_unique<FeatureKnnAttacker>(*this);
  }
  void save_body(io::Writer& out) const override;
  void load_body(io::Reader& in) override;

  const core::ShardedReferenceSet& references() const { return references_; }

 private:
  core::ShardedReferenceSet references_;
  core::KnnClassifier knn_;
};

// The canonical attacker-name table. io::load_attacker dispatches through
// make_attacker_by_name and eval::attacker_names() reports
// attacker_type_names(), so a new attacker registered here is immediately
// loadable from disk; only the config-aware eval::attacker_factory needs a
// matching branch.
std::vector<std::string> attacker_type_names();
// Default-constructed instance ready for load_body; throws
// std::invalid_argument on an unknown name.
std::unique_ptr<core::Attacker> make_attacker_by_name(const std::string& name);

}  // namespace wf::baselines
