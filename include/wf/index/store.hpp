#pragma once

// The IVF index is a file: write_index_file lays an IvfReferenceStore build
// out as a fixed-layout, versioned, mmap-friendly base store, a sidecar
// append journal takes churn, `wf index rebuild` compacts the two, and
// MappedIndex — the one IVF core::ReferenceStore — serves base + journal.
// This is the mapstore pattern (base + journal + rebuild) applied to
// adapt's swap-references churn.
//
// Base file ("WFIO" | format v1 | "IVFX" | index layout v1):
//
//   offset 16: u64 dim | u64 clusters | u64 rows | u64 next_row_id
//            | u64 n_class_ids | u64 default_probes | u64 kmeans_seed
//            | u64 kmeans_iters* | u64 sample_per_cluster*
//            | f64 rebuild_churn* | u64 file_bytes           (header = 104 B)
//   (* fixed fields: always written as 8, 32 and 0.5, never read back)
//   then, each 64-byte aligned, little-endian, cluster-major:
//     u64 cluster_rows[clusters]
//     i32 id_to_label [n_class_ids]
//     f32 centroids   [clusters x dim]
//     f32 data        [rows x dim]
//     f64 sq_norms    [rows]
//     i32 class_ids   [rows]
//     u64 row_ids     [rows]
//
// `file_bytes` pins the total size, so truncation is detected before any
// array is touched. The arrays are exactly the in-memory cell tables, which
// is what makes open O(1) in the data: MappedIndex points ShardViews
// straight into the mapping (only the small id tables are validated).
//
// Journal ("<base>.journal", "WFIO" | v1 | "IVFJ" | layout v1 | u64 dim |
// u64 clusters, then records): u8 kind 1 = add {u64 cluster, i32 label,
// u64 row_id, f64 sq_norm, f32 embedding[dim]}, u8 kind 2 = remove-class
// {i32 label}. Add row ids start at the base's next_row_id and strictly
// increase; a journal that breaks this (e.g. one left behind by a rebuild
// killed after its rename, whose adds the base already holds) is rejected
// with IoError instead of replayed twice, as is an unknown record kind. A
// journal that ends inside its last record or its header (bytes that begin
// the header this base's writer writes) — an append cut short by a crash —
// reads as if the partial bytes were absent: each reader logs a warning and
// counts index.journal_torn_tails, and the next IndexJournalWriter cuts
// them off. MappedIndex replays the journal once, in record order, at open:
// adds become in-memory tail rows, and the first removal of a present class
// turns the private mapping copy-on-write before the removal loop moves
// rows in it. The moved rows live in process memory; the file is never
// written.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "index/ivf.hpp"
#include "io/mmap.hpp"

namespace wf::index {

inline constexpr std::uint32_t kIndexLayoutVersion = 1;
inline constexpr std::uint32_t kJournalLayoutVersion = 1;

// Writes `store` to `path` in the base-store layout above, through
// <path>.tmp and a rename: a process that has the old file mapped keeps
// answering from it. Then deletes <path>.journal, which belonged to the
// replaced file.
void write_index_file(const std::string& path, const IvfReferenceStore& store);

// The serving entry point: a MappedIndex of `path` and its journal.
// `probes` overrides the file's default when nonzero.
std::unique_ptr<core::ReferenceStore> open_index(const std::string& path,
                                                 std::size_t probes = 0);

// Re-clusters the live rows of the MappedIndex of `path` (base + journal),
// keeping its next_row_id, and atomically replaces `path` (tmp, fsync,
// rename, fsync of the directory), then deletes the journal. This is the
// only way an index is re-clustered. Returns the compacted row count.
// Killed between the rename and the delete, it leaves a stale journal that
// every open rejects (above) until it is deleted.
std::size_t rebuild_index_file(const std::string& path);

// Sidecar-journal appender: records churn against an existing base store
// without rewriting it. An add goes to the cluster of its nearest base
// centroid (detail::nearest_centroids, the rule of the build and the
// probe), and row ids continue the sequence past any previously journaled
// adds, as a rebuild of the live rows would number them.
class IndexJournalWriter {
 public:
  // Cuts a torn tail off the journal first, so appends start on a record
  // boundary.
  explicit IndexJournalWriter(const std::string& index_path);

  void add(std::span<const float> embedding, int label);
  void remove_class(int label);

  const std::string& journal_path() const { return journal_path_; }

 private:
  void append(const std::string& record);

  std::string journal_path_;
  std::size_t dim_ = 0;
  util::AlignedVector<float> centroids_;
  std::vector<double> centroid_norms_;
  std::uint64_t next_row_id_ = 0;
};

// Everything `wf index info` prints, readable without loading the data.
struct IndexInfo {
  std::size_t dim = 0;
  std::size_t clusters = 0;
  std::size_t rows = 0;
  std::size_t n_class_ids = 0;
  IvfConfig config;
  std::uint64_t next_row_id = 0;
  std::uint64_t file_bytes = 0;
  std::size_t min_cluster_rows = 0;
  std::size_t max_cluster_rows = 0;
  std::uint64_t journal_bytes = 0;  // through its last complete record (0: no journal)
  std::size_t journal_adds = 0;
  std::size_t journal_removes = 0;
};
IndexInfo read_index_info(const std::string& path);

// The mmap-backed store, and the only IVF core::ReferenceStore. Shards
// [0, C) are the base clusters, their columns in place in the mapping;
// shards [C, 2C) are the journal tails of the same clusters
// (core::RowTables), so probing cluster c scans both its base rows and its
// appended rows. The class-id space continues the file's id table in
// journal order: an add interns its label, a removal frees its id and the
// last id takes the slot over (core::ClassIdSpace). set_probes sets P on
// the open file.
class MappedIndex final : public core::ReferenceStore {
 public:
  explicit MappedIndex(const std::string& path, std::size_t probes = 0);

  std::size_t dim() const override { return dim_; }
  std::size_t size() const override { return size_; }
  std::size_t shard_count() const override { return 2 * base_.size(); }
  core::ShardView shard_view(std::size_t shard) const override;
  std::size_t n_class_ids() const override { return ids_.size(); }
  int label_of_id(std::size_t id) const override { return ids_.label_of(id); }
  bool pruned() const override { return true; }
  void probe_shards(std::span<const float> query,
                    std::vector<std::size_t>& out) const override;

  void set_probes(std::size_t probes) { config_.probes = probes; }
  // What rebuild_index_file carries into the compacted file besides the rows.
  const IvfConfig& config() const { return config_; }
  std::uint64_t next_row_id() const { return next_row_id_; }

 private:
  void remove_class(int label);

  io::MappedFile map_;
  IvfConfig config_;  // the file's; probes 0 = all clusters (exact)
  std::size_t dim_ = 0;
  std::size_t size_ = 0;
  std::uint64_t next_row_id_ = 0;
  const float* centroids_ = nullptr;
  std::vector<double> centroid_norms_;
  // Base clusters, pointing into the mapping: written only by
  // remove_class, after the mapping is made copy-on-write.
  std::vector<core::RowColumns> base_;
  std::vector<core::RowTables> tails_;
  core::ClassIdSpace ids_;
};

}  // namespace wf::index
