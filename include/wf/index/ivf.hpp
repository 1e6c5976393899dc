#pragma once

// wf::index — the million-reference regime. IvfReferenceStore is an IVF
// build: a seeded k-means partitions the reference embeddings into C
// clusters, and every row lands in the cell of its nearest centroid. Its
// one consumer is write_index_file (index/store.hpp); the written file,
// opened as MappedIndex, is the IVF core::ReferenceStore. There a query
// probes only the P nearest clusters (classic IVF), and because the
// candidate merge runs on unique (dist, insertion-id) keys, probing all C
// clusters (P = 0) reproduces the exact scan's top-k bit for bit. Smaller P
// trades recall for speed — the exactness knob.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/reference_store.hpp"
#include "core/row_tables.hpp"
#include "util/aligned.hpp"

namespace wf::index {

struct IvfConfig {
  // Cluster count C; 0 = auto (≈ √n, clamped to [1, n]).
  std::size_t clusters = 0;
  // Clusters probed per query P; 0 = all of them (exact), otherwise
  // clamped to [1, C]. The build only records it as the file's default.
  std::size_t probes = 0;
  // Seed of the k-means (sample shuffle and k-means++ init).
  std::uint64_t seed = 9041;
};

// Seeded k-means: Lloyd iteration count and the training-sample budget (at
// most kSamplePerCluster x C rows train the centroids; assignment always
// covers every row).
inline constexpr std::size_t kKmeansIters = 8;
inline constexpr std::size_t kSamplePerCluster = 32;

class IvfReferenceStore {
 public:
  // One cluster's dense side tables, laid out exactly like a store shard
  // (row_ids are the base store's global ids, so rankings keep the exact
  // scan's tie-break).
  using Cell = core::RowTables;

  // Seeded k-means over the rows of `base`. Rows are gathered in global
  // insertion-id order, so the clustering depends only on the content, not
  // on how `base` happened to be sharded. The file's next_row_id is
  // max(next_row_id, last row id + 1): a rebuild passes its file's
  // next_row_id, because ids of removed rows are never reused.
  IvfReferenceStore(const core::ReferenceStore& base, const IvfConfig& config,
                    std::uint64_t next_row_id = 0);

  std::size_t dim() const { return dim_; }
  std::size_t size() const { return size_; }
  const IvfConfig& config() const { return config_; }
  std::size_t clusters() const { return cells_.size(); }
  std::span<const float> centroids() const { return centroids_; }
  const Cell& cell(std::size_t c) const { return cells_[c]; }
  const std::vector<int>& id_to_label() const { return ids_.labels(); }
  std::size_t n_class_ids() const { return ids_.size(); }
  std::uint64_t next_row_id() const { return next_row_id_; }

 private:
  IvfConfig config_;
  std::size_t dim_ = 0;
  std::size_t size_ = 0;
  std::uint64_t next_row_id_ = 0;
  util::AlignedVector<float> centroids_;  // clusters x dim
  std::vector<Cell> cells_;
  core::ClassIdSpace ids_;
};

namespace detail {
// The `count` clusters nearest to `row` among the n row-major `centroids`
// (`norms`: their cached ‖c‖²), written to `out` in ascending margin
// ‖c‖² − 2·<row, c> — the squared distance minus the row's own norm — with
// ties to the lower cluster; count >= n yields every cluster in index order
// without computing a margin. Every cluster choice of wf::index (probes,
// journal appends, k-means assignment) ranks by this margin and tie-break,
// so the build, the journal and the mapped probe agree.
void nearest_centroids(const float* row, const float* centroids, const double* norms,
                       std::size_t n, std::size_t dim, std::size_t count,
                       std::vector<std::size_t>& out);
}  // namespace detail

}  // namespace wf::index
