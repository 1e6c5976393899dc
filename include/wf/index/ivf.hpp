#pragma once

// wf::index — the million-reference regime. IvfReferenceStore partitions the
// reference embeddings into C clusters with a seeded k-means and answers
// queries by probing only the P nearest clusters (classic IVF). It plugs in
// behind core::ReferenceStore, so KnnClassifier / OpenWorldDetector /
// AdaptiveFingerprinter and the serve daemon pick it up through the
// interface: each cluster is one "shard", probe_shards() is the pruning
// hook, and because the candidate merge runs on unique (dist, insertion-id)
// keys, probing all C clusters (probes = 0) reproduces the exact scan's
// top-k bit for bit. Smaller P trades recall for speed — the exactness knob.
//
// Churn (adapt's swap-references) is absorbed without re-clustering: add()
// appends to the nearest centroid's cell and remove_class() fills each gap
// with its cell's last row (core::erase_class, shared with the sharded
// store). A served index takes churn only through the on-disk journal and
// is re-clustered only by `wf index rebuild` (index/store.hpp); add() and
// remove_class() here are the in-memory oracle that journal replay is
// checked against.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/reference_store.hpp"
#include "core/row_tables.hpp"
#include "util/aligned.hpp"

namespace wf::obs {
class Counter;
class Gauge;
}  // namespace wf::obs

namespace wf::index {

struct IvfConfig {
  // Cluster count C; 0 = auto (≈ √n, clamped to [1, n]).
  std::size_t clusters = 0;
  // Clusters probed per query P; 0 = all of them (exact), otherwise
  // clamped to [1, C].
  std::size_t probes = 0;
  // Seed of the k-means (sample shuffle and k-means++ init).
  std::uint64_t seed = 9041;
};

// Seeded k-means: Lloyd iteration count and the training-sample budget (at
// most kSamplePerCluster x C rows train the centroids; assignment always
// covers every row).
inline constexpr std::size_t kKmeansIters = 8;
inline constexpr std::size_t kSamplePerCluster = 32;

class IvfReferenceStore final : public core::ReferenceStore {
 public:
  // One cluster's dense side tables, laid out exactly like a store shard
  // (row_ids are the base store's global ids, so rankings keep the exact
  // scan's tie-break).
  using Cell = core::RowTables;

  IvfReferenceStore() = default;
  // Seeded k-means over the rows of `base`. Rows are gathered in global
  // insertion-id order, so the clustering depends only on the content, not
  // on how `base` happened to be sharded. add() hands out row ids from
  // max(next_row_id, last row id + 1): a rebuild passes its file's
  // next_row_id, because ids of removed rows are never reused.
  IvfReferenceStore(const core::ReferenceStore& base, const IvfConfig& config,
                    std::uint64_t next_row_id = 0);

  // core::ReferenceStore
  std::size_t dim() const override { return dim_; }
  std::size_t size() const override { return size_; }
  std::size_t shard_count() const override { return cells_.size(); }
  core::ShardView shard_view(std::size_t shard) const override;
  std::size_t n_class_ids() const override { return ids_.size(); }
  int label_of_id(std::size_t id) const override { return ids_.label_of(id); }
  bool pruned() const override { return true; }
  void probe_shards(std::span<const float> query,
                    std::vector<std::size_t>& out) const override;

  const IvfConfig& config() const { return config_; }
  std::size_t clusters() const { return cells_.size(); }
  // Runtime exactness knob (0 = all clusters); does not touch the layout.
  void set_probes(std::size_t probes) { config_.probes = probes; }
  std::size_t effective_probes() const;

  std::span<const float> centroids() const { return centroids_; }
  const Cell& cell(std::size_t c) const { return cells_[c]; }
  const std::vector<int>& id_to_label() const { return ids_.labels(); }
  std::vector<int> classes() const;  // sorted labels
  std::uint64_t next_row_id() const { return next_row_id_; }

  // Churn path (adapt's swap-references): append to the nearest centroid's
  // cell / drop a class with core::erase_class (each cell's last row fills
  // each gap; the last class id takes over the freed one). Neither moves
  // centroids or rows of other cells. add() throws std::invalid_argument
  // once row ids reach core::kMaxRowIds or for a new class past
  // core::kMaxClassIds.
  void add(std::span<const float> embedding, int label);
  void remove_class(int label);

 private:
  IvfConfig config_;
  std::size_t dim_ = 0;
  std::size_t size_ = 0;
  std::uint64_t next_row_id_ = 0;
  util::AlignedVector<float> centroids_;  // clusters x dim
  std::vector<double> centroid_norms_;    // cached ‖c‖² per centroid
  std::vector<Cell> cells_;
  core::ClassIdSpace ids_;
};

namespace detail {
// The shared obs instruments (index.probes_total, index.clusters_scanned,
// index.rows_scanned, index.rebuilds_total, index.journal_bytes), fetched
// once from the global registry.
struct IndexMetrics {
  obs::Counter* probes_total;
  obs::Counter* clusters_scanned;
  obs::Counter* rows_scanned;
  obs::Counter* rebuilds_total;
  obs::Gauge* journal_bytes;
};
const IndexMetrics& index_metrics();

// The `count` clusters nearest to `row` among the n row-major `centroids`
// (`norms`: their cached ‖c‖²), written to `out` in ascending margin
// ‖c‖² − 2·<row, c> — the squared distance minus the row's own norm — with
// ties to the lower cluster; count >= n yields every cluster in index order
// without computing a margin. Every cluster choice of wf::index (probes,
// add(), journal appends, k-means assignment) ranks by this margin and
// tie-break, so the live store, the mapped view and a journal replay agree.
void nearest_centroids(const float* row, const float* centroids, const double* norms,
                       std::size_t n, std::size_t dim, std::size_t count,
                       std::vector<std::size_t>& out);

// probe_shards() of both IVF stores. `store`'s shards [0, C) are its
// clusters (C = norms.size()) and, when it has 2C shards, [C, 2C) are their
// journal tails. Writes the `probes` clusters nearest to `query` (0 = all),
// then the non-empty tail of each, and counts the probe in index.* metrics.
void probe_clusters(const core::ReferenceStore& store, std::span<const float> query,
                    const float* centroids, std::span<const double> norms, std::size_t probes,
                    std::vector<std::size_t>& out);
}  // namespace detail

}  // namespace wf::index
