#include "core/adaptive.hpp"

#include <algorithm>
#include <stdexcept>

#include "io/serialize.hpp"
#include "obs/trace.hpp"

namespace wf::core {

AdaptiveFingerprinter::AdaptiveFingerprinter(const EmbeddingConfig& config, int knn_k,
                                             std::size_t n_shards)
    : model_(config), references_(config.embedding_dim, n_shards), knn_(knn_k) {}

TrainStats AdaptiveFingerprinter::provision(const data::Dataset& train,
                                            data::PairStrategy strategy) {
  data::PairGenerator pairs(train, strategy, model_.config().seed);
  return model_.train(pairs);
}

void AdaptiveFingerprinter::initialize(const data::Dataset& references) {
  references_ = ShardedReferenceSet(model_.config().embedding_dim, references_.shard_count());
  references_.add_all(model_.embed_dataset(references), references.labels_of());
}

TrainStats AdaptiveFingerprinter::train(const data::Dataset& train) {
  const TrainStats stats = provision(train);
  initialize(train);
  return stats;
}

std::vector<std::vector<RankedLabel>> AdaptiveFingerprinter::fingerprint_batch(
    const data::Dataset& traces) const {
  const obs::Span span("rank");
  return knn_.rank_batch(store(), model_.embed(traces.to_matrix()));
}

SliceScan AdaptiveFingerprinter::scan_slice(const data::Dataset& traces,
                                            std::size_t slice_index,
                                            std::size_t slice_count) const {
  const obs::Span span("scan");
  return knn_.scan_slice(store(), model_.embed(traces.to_matrix()), slice_index, slice_count);
}

double AdaptiveFingerprinter::probe_class_accuracy(int label, const data::Dataset& probe) const {
  if (probe.empty()) return 0.0;
  const data::Dataset mine = probe.filter([label](int l) { return l == label; });
  if (mine.empty()) return 0.0;
  const obs::Span span("rank");
  // Only the front is read: a depth-1 ranking comes straight off the k-heap.
  const std::vector<std::vector<RankedLabel>> rankings =
      knn_.rank_batch(store(), model_.embed(mine.to_matrix()), 1);
  std::size_t hits = 0;
  for (const std::vector<RankedLabel>& ranking : rankings)
    if (!ranking.empty() && ranking.front().label == label) ++hits;
  return static_cast<double>(hits) / static_cast<double>(mine.size());
}

void AdaptiveFingerprinter::adapt_class(int label, const data::Dataset& fresh) {
  references_.remove_class(label);
  const data::Dataset mine = fresh.filter([label](int l) { return l == label; });
  if (!mine.empty()) {
    const nn::Matrix embeddings = model_.embed_dataset(mine);
    for (std::size_t i = 0; i < embeddings.rows(); ++i)
      references_.add(embeddings.row_span(i), label);
  }
}

std::vector<int> AdaptiveFingerprinter::target_classes() const {
  const ReferenceStore& refs = store();
  if (&refs == &references_) return references_.classes();
  std::vector<int> labels;
  labels.reserve(refs.n_class_ids());
  for (std::size_t id = 0; id < refs.n_class_ids(); ++id) labels.push_back(refs.label_of_id(id));
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

void AdaptiveFingerprinter::save_body(io::Writer& out) const {
  io::write_section(out, "CONF",
                    [&](io::Writer& w) { io::save_embedding_config(w, model_.config()); });
  io::write_section(out, "KNNC", [&](io::Writer& w) { io::save_knn_k(w, knn_.k()); });
  io::write_section(out, "MLPW", [&](io::Writer& w) { io::save_mlp(w, model_.net()); });
  io::write_section(out, "REFS",
                    [&](io::Writer& w) { io::save_reference_set(w, references_); });
}

void AdaptiveFingerprinter::load_body(io::Reader& in) {
  const EmbeddingConfig config = io::parse_section(
      in, "CONF", [](io::Reader& r) { return io::load_embedding_config(r); });
  const int k = io::parse_section(in, "KNNC", [](io::Reader& r) { return io::load_knn_k(r); });
  nn::Mlp net =
      io::parse_section(in, "MLPW", [](io::Reader& r) { return io::load_mlp(r); });
  // The whole architecture — not just the endpoints — must agree with the
  // config, since EmbeddingModel(config) below rebuilds the net from it.
  std::vector<std::size_t> expected_sizes;
  expected_sizes.push_back(config.input_dim());
  expected_sizes.insert(expected_sizes.end(), config.hidden.begin(), config.hidden.end());
  expected_sizes.push_back(config.embedding_dim);
  if (net.layer_sizes() != expected_sizes)
    throw io::IoError("MLP architecture does not match the stored embedding config");
  ShardedReferenceSet references = io::parse_section(
      in, "REFS", [](io::Reader& r) { return io::load_reference_set(r); });
  if (references.dim() != config.embedding_dim)
    throw io::IoError("reference-set width does not match the stored embedding config");

  model_ = EmbeddingModel(config);
  model_.net() = std::move(net);
  references_ = std::move(references);
  knn_ = KnnClassifier(k);
  // An attached store is never serialized: a loaded attacker answers from
  // its own references until someone attaches an index.
  store_override_.reset();
}

}  // namespace wf::core
