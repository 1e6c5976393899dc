#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/reference_store.hpp"
#include "core/row_tables.hpp"
#include "nn/matrix.hpp"

namespace wf::core {

// Reference embeddings partitioned into S shards, each with its own dense
// data/norm/class-id tables, so the query kernels can scan shards one GEMM
// tile at a time while each query keeps one candidate heap across them.
// Rows are distributed round-robin by a global insertion counter; the
// counter value is kept per row as the tie-break id, which makes every
// ranking identical to a single scan over the rows in insertion
// order, for any shard count (S = 1 is the unsharded store).
//
// Adaptation (§IV-C probe-and-swap) stays a pure data operation: a swap is
// a remove_class that fills each gap with its shard's last row, followed by
// round-robin re-adds; no other row moves.
class ShardedReferenceSet final : public ReferenceStore {
 public:
  ShardedReferenceSet() = default;
  // n_shards == 0 resolves to default_shard_count().
  explicit ShardedReferenceSet(std::size_t dim, std::size_t n_shards = 1);

  // Throws std::invalid_argument on a width mismatch, once row ids reach
  // kMaxRowIds, or for a new class past kMaxClassIds.
  void add(std::span<const float> embedding, int label);
  void add_all(const nn::Matrix& embeddings, const std::vector<int>& labels);

  // Drop every reference of `label` (core::erase_class): each shard's
  // last row moves into each gap and the class holding the last dense id
  // takes over the freed one, so stale ids never survive a swap and the
  // cost is one pass over the class-id column, not a rewrite of the store.
  // An absent label is a no-op.
  void remove_class(int label);

  // ReferenceStore
  std::size_t dim() const override { return dim_; }
  std::size_t size() const override { return size_; }
  std::size_t shard_count() const override { return shards_.size(); }
  ShardView shard_view(std::size_t shard) const override;
  std::size_t n_class_ids() const override { return ids_.size(); }
  int label_of_id(std::size_t id) const override { return ids_.label_of(id); }

  bool empty() const { return size_ == 0; }

  // Distinct page labels, ascending.
  std::vector<int> classes() const;

  // WF_SHARDS when set (clamped to [1, 4096]), else one shard per thread of
  // the global pool — enough to keep every worker on its own shard.
  static std::size_t default_shard_count();

  // One shard's dense tables. The shard layout is a runtime property of
  // this object alone: wf::io saves core::rows_by_id() and restore() deals
  // the rows again, so a file never records a shard count.
  using ShardTables = RowTables;
  const ShardTables& shard_tables(std::size_t shard) const { return shards_[shard]; }
  std::uint64_t next_row_id() const { return next_row_id_; }
  const std::vector<int>& id_to_label() const { return ids_.labels(); }

  // Rebuild a set from serialized tables (any number, any row order):
  // validates cross-table consistency (core::check_row_tables), then deals
  // every row into default_shard_count() shards by row id % S, as add()
  // does. Row ids and the dense class-id space are kept verbatim, so every
  // ranking is bit-identical to the saved set's, merge tie-breaks included.
  // Throws std::invalid_argument on a mismatch, a repeated label, or ids
  // past the candidate-key limits.
  static ShardedReferenceSet restore(std::size_t dim, std::uint64_t next_row_id,
                                     std::vector<int> id_to_label,
                                     std::vector<ShardTables> tables);

 private:
  std::size_t dim_ = 0;
  std::size_t size_ = 0;           // rows across all shards
  std::uint64_t next_row_id_ = 0;  // monotone; never reused after removals
  std::vector<RowTables> shards_;
  ClassIdSpace ids_;
};

}  // namespace wf::core
