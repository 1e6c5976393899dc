#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/attacker.hpp"
#include "core/embedding.hpp"
#include "core/knn.hpp"
#include "core/sharded_reference_set.hpp"
#include "data/splits.hpp"
#include "trace/sequence.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace wf::core {

// The paper's adversary in one object (§IV):
//   provision   — train the embedding model on labeled pairs (once, costly)
//   initialize  — embed the labeled crawl into the reference set
//   fingerprint — rank candidate pages for observed traces (one GEMM per
//                 layer, one sharded scan; a single trace is a one-row batch)
//   adapt       — probe-and-swap reference refresh, *never* retraining
//
// As an Attacker: train() = provision + initialize, set_references() =
// initialize, adapt() = adapt_class — re-targeting and adaptation keep the
// trained embedding fixed, the paper's core operational claim.
class AdaptiveFingerprinter final : public Attacker {
 public:
  // `n_shards` partitions the reference set for the sharded query paths;
  // 0 resolves via ShardedReferenceSet::default_shard_count() (WF_SHARDS,
  // else one shard per pool thread). Rankings are identical for any count,
  // and a model file does not record it: load_body re-shards the loaded
  // references under the reader's default_shard_count().
  AdaptiveFingerprinter(const EmbeddingConfig& config, int knn_k, std::size_t n_shards = 0);
  // Placeholder state for Attacker::load / io::load_attacker (single shard,
  // default config; everything is replaced by load_body).
  AdaptiveFingerprinter() : AdaptiveFingerprinter(EmbeddingConfig{}, 40, 1) {}

  AdaptiveFingerprinter(const AdaptiveFingerprinter&) = default;
  AdaptiveFingerprinter& operator=(const AdaptiveFingerprinter&) = default;
  AdaptiveFingerprinter(AdaptiveFingerprinter&&) = default;
  AdaptiveFingerprinter& operator=(AdaptiveFingerprinter&&) = default;
  ~AdaptiveFingerprinter() override = default;

  TrainStats provision(const data::Dataset& train,
                       data::PairStrategy strategy = data::PairStrategy::kRandom);

  void initialize(const data::Dataset& references);

  // Fraction of probe loads of `label` classified correctly at top-1 —
  // the §IV-C health check deciding whether to refresh a class. Ranks to
  // depth 1, which reads each query's k-heap and skips per-class work.
  double probe_class_accuracy(int label, const data::Dataset& probe) const;

  // Replace the reference embeddings of `label` with fresh loads: a
  // remove_class that moves each shard's last row into each gap and hands
  // the freed class id to the last one, plus round-robin re-adds (embedding
  // + swap only; the trained model is untouched). The cost scales with the
  // class-id column, not the store. An attached index (set_store) is not
  // touched: index churn goes through index::IndexJournalWriter.
  void adapt_class(int label, const data::Dataset& fresh);

  // Scatter half of a distributed query (`wf serve` shard backends): embed
  // the traces and scan only the shards s ≡ slice_index (mod slice_count)
  // of the reference set. Folding every slice's result back together with
  // core::merge_slice_scans reproduces fingerprint_batch bit-identically.
  SliceScan scan_slice(const data::Dataset& traces, std::size_t slice_index,
                       std::size_t slice_count) const;

  // Attacker interface.
  std::string name() const override { return "adaptive"; }
  TrainStats train(const data::Dataset& train) override;
  void set_references(const data::Dataset& references) override { initialize(references); }
  // Embed every trace with one GEMM per layer and rank all queries against
  // the reference set in one sharded pass; Attacker::fingerprint is its
  // one-row case.
  std::vector<std::vector<RankedLabel>> fingerprint_batch(
      const data::Dataset& traces) const override;
  void adapt(int label, const data::Dataset& fresh) override { adapt_class(label, fresh); }
  std::vector<int> target_classes() const override;
  std::unique_ptr<Attacker> clone() const override {
    return std::make_unique<AdaptiveFingerprinter>(*this);
  }
  void save_body(io::Writer& out) const override;
  void load_body(io::Reader& in) override;

  const ShardedReferenceSet& references() const { return references_; }
  const EmbeddingModel& model() const { return model_; }
  const KnnClassifier& classifier() const { return knn_; }

  // --- index routing ----------------------------------------------------------
  // The store every query path (fingerprint_batch, scan_slice,
  // probe_class_accuracy, target_classes) actually scans: the attached store
  // if there is one, else the exact sharded set. references_ stays
  // authoritative for save/load.
  const ReferenceStore& store() const {
    return store_override_ ? *store_override_ : references_;
  }
  // Attach an external read-only store (`wf serve --index`: an mmap-backed
  // index::MappedIndex). Queries scan it instead of references_; adaptation
  // keeps mutating references_ and does NOT reach the attached store. An
  // index takes churn only through its journal (index::IndexJournalWriter)
  // and `wf index rebuild`; reopen it to pick the churn up.
  void set_store(std::shared_ptr<const ReferenceStore> store) {
    store_override_ = std::move(store);
  }

 private:
  EmbeddingModel model_;
  ShardedReferenceSet references_;
  KnnClassifier knn_;
  std::shared_ptr<const ReferenceStore> store_override_;
};

}  // namespace wf::core
