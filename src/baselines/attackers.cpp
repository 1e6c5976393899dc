#include "baselines/attackers.hpp"

#include <stdexcept>

#include "core/adaptive.hpp"
#include "io/serialize.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace wf::baselines {

std::vector<std::string> attacker_type_names() { return {"adaptive", "forest", "kfp-knn"}; }

std::unique_ptr<core::Attacker> make_attacker_by_name(const std::string& name) {
  if (name == "adaptive") return std::make_unique<core::AdaptiveFingerprinter>();
  if (name == "forest") return std::make_unique<ForestAttacker>();
  if (name == "kfp-knn") return std::make_unique<FeatureKnnAttacker>();
  std::string known;
  for (const std::string& n : attacker_type_names()) known += " " + n;
  throw std::invalid_argument("unknown attacker \"" + name + "\" (known:" + known + ")");
}

namespace {

void save_forest_config(io::Writer& out, const ForestConfig& config) {
  out.i32(config.n_trees);
  out.i32(config.max_depth);
  out.i32(config.min_samples_leaf);
  out.i32(config.n_feature_candidates);
  out.u64(config.seed);
}

ForestConfig load_forest_config(io::Reader& in) {
  ForestConfig config;
  config.n_trees = in.i32();
  config.max_depth = in.i32();
  config.min_samples_leaf = in.i32();
  config.n_feature_candidates = in.i32();
  config.seed = in.u64();
  return config;
}

}  // namespace

core::TrainStats ForestAttacker::train(const data::Dataset& train) {
  util::Stopwatch watch;
  train_ = train;
  forest_ = RandomForest(config_);
  forest_.fit(train_);
  core::TrainStats stats;
  stats.seconds = watch.seconds();
  return stats;
}

void ForestAttacker::set_references(const data::Dataset& references) { train(references); }

std::vector<std::vector<core::RankedLabel>> ForestAttacker::fingerprint_batch(
    const data::Dataset& traces) const {
  std::vector<std::vector<core::RankedLabel>> rankings(traces.size());
  // Per-trace rankings are independent; shard them over the pool (disjoint
  // outputs, so results are identical for any thread count).
  util::global_pool().parallel_for(0, traces.size(), [&](std::size_t i) {
    rankings[i] = forest_.rank(traces[i].features);
  });
  return rankings;
}

void ForestAttacker::adapt(int label, const data::Dataset& fresh) {
  data::Dataset updated(train_.feature_dim());
  for (std::size_t i = 0; i < train_.size(); ++i)
    if (train_[i].label != label) updated.add(train_[i]);
  for (std::size_t i = 0; i < fresh.size(); ++i)
    if (fresh[i].label == label) updated.add(fresh[i]);
  train_ = std::move(updated);
  forest_ = RandomForest(config_);
  forest_.fit(train_);
}

void ForestAttacker::save_body(io::Writer& out) const {
  io::write_section(out, "FCFG", [&](io::Writer& w) { save_forest_config(w, config_); });
  io::write_section(out, "TREE", [&](io::Writer& w) { forest_.save_trees(w); });
  io::write_section(out, "TRNS", [&](io::Writer& w) { io::save_dataset_body(w, train_); });
}

void ForestAttacker::load_body(io::Reader& in) {
  config_ =
      io::parse_section(in, "FCFG", [](io::Reader& r) { return load_forest_config(r); });
  RandomForest forest(config_);
  io::parse_section(in, "TREE", [&](io::Reader& r) {
    forest.load_trees(r);
    return 0;
  });
  forest_ = std::move(forest);
  train_ = io::parse_section(in, "TRNS",
                             [](io::Reader& r) { return io::load_dataset_body(r); });
  // rank() indexes query features by the split indices; every one must fit
  // the corpus width the file itself declares.
  if (forest_.max_feature_index() >= static_cast<int>(train_.feature_dim()))
    throw io::IoError("forest split features exceed the stored corpus width");
}

core::TrainStats FeatureKnnAttacker::train(const data::Dataset& train) {
  util::Stopwatch watch;
  set_references(train);
  core::TrainStats stats;
  stats.seconds = watch.seconds();
  return stats;
}

void FeatureKnnAttacker::set_references(const data::Dataset& references) {
  references_ = core::ShardedReferenceSet(references.feature_dim(), references_.shard_count());
  for (std::size_t i = 0; i < references.size(); ++i)
    references_.add(references[i].features, references[i].label);
}

std::vector<std::vector<core::RankedLabel>> FeatureKnnAttacker::fingerprint_batch(
    const data::Dataset& traces) const {
  return knn_.rank_batch(references_, traces.to_matrix());
}

void FeatureKnnAttacker::adapt(int label, const data::Dataset& fresh) {
  references_.remove_class(label);
  for (std::size_t i = 0; i < fresh.size(); ++i)
    if (fresh[i].label == label) references_.add(fresh[i].features, fresh[i].label);
}

void FeatureKnnAttacker::save_body(io::Writer& out) const {
  io::write_section(out, "KNNC", [&](io::Writer& w) { io::save_knn_k(w, knn_.k()); });
  io::write_section(out, "REFS",
                    [&](io::Writer& w) { io::save_reference_set(w, references_); });
}

void FeatureKnnAttacker::load_body(io::Reader& in) {
  const int k = io::parse_section(in, "KNNC", [](io::Reader& r) { return io::load_knn_k(r); });
  references_ = io::parse_section(
      in, "REFS", [](io::Reader& r) { return io::load_reference_set(r); });
  knn_ = core::KnnClassifier(k);
}

}  // namespace wf::baselines
