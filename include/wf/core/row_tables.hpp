#pragma once

// The row layout every reference store holds: ShardedReferenceSet keeps one
// RowTables per shard and index::MappedIndex one per journal tail, each
// store with its dense class-id space in a ClassIdSpace; an IVF build
// (index::IvfReferenceStore) fills one per cluster cell for the writer. A
// mapped IVFX cluster has the same four columns in place.
// remove_class_rows is the one removal loop behind every store's class
// removal.

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/reference_store.hpp"
#include "util/aligned.hpp"

namespace wf::core {

// Writable counterpart of ShardView: one table's four columns plus its row
// count, over an owned RowTables or a copy-on-write mapped cluster.
struct RowColumns {
  float* data = nullptr;
  double* sq_norms = nullptr;
  int* class_ids = nullptr;
  std::uint64_t* row_ids = nullptr;
  std::size_t rows = 0;
};

// One shard's (or cell's) rows as four row-aligned columns; a row's label is
// the label of its class id. Row order within the tables never reaches a
// result: candidate keys (dist, row id) are unique, per-class values are
// minima, ranking ties break by label, and IVF builds gather rows by row id.
// So a removal may move rows.
struct RowTables {
  // 64-byte aligned so the SIMD distance kernels can tile straight off the
  // base (util::kSimdAlignment, like nn::Matrix).
  util::AlignedVector<float> data;     // rows x dim, row-major
  std::vector<double> sq_norms;        // cached ‖r‖² per row
  std::vector<int> class_ids;          // dense store-global class id per row
  std::vector<std::uint64_t> row_ids;  // global insertion id per row: the tie-break key

  std::size_t rows() const { return row_ids.size(); }
  ShardView view() const {
    return {data.data(), sq_norms.data(), class_ids.data(), row_ids.data(), rows()};
  }
  RowColumns columns() {
    return {data.data(), sq_norms.data(), class_ids.data(), row_ids.data(), rows()};
  }
  void append(std::span<const float> embedding, double sq_norm, int class_id,
              std::uint64_t row_id);
  // Capacity for `rows` rows of width `dim` in all four columns.
  void reserve(std::size_t rows, std::size_t dim);
};

// A store's dense class-id space: ids 0 .. size() - 1, each naming one
// distinct label that has at least one row.
class ClassIdSpace {
 public:
  ClassIdSpace() = default;
  // Adopts a serialized id -> label table. Throws std::invalid_argument when
  // a label repeats or the table holds more than kMaxClassIds ids.
  explicit ClassIdSpace(std::vector<int> labels_by_id);

  std::size_t size() const { return labels_.size(); }
  int label_of(std::size_t id) const { return labels_[id]; }
  const std::vector<int>& labels() const { return labels_; }
  // The id of `label`, or -1 when the space does not hold it.
  int find(int label) const;
  // The id of `label`, taking the next dense id on first sight. Throws
  // std::invalid_argument when that would exceed kMaxClassIds ids.
  int intern(int label);
  // Frees `id` and keeps the space dense: the last id's label moves into the
  // slot, so rows holding the last id must be renumbered to `id`.
  void release(int id);

 private:
  std::vector<int> labels_;
  std::unordered_map<int, int> ids_;
};

// Drops every row of class id `victim` from `table` and renumbers the rows
// of class id `last` to `victim`; returns the rows that survive, which then
// fill [0, result). The table's last row moves into each gap, so only the
// class_ids column is rewritten in place: no row shifts.
std::size_t remove_class_rows(const RowColumns& table, std::size_t dim, int victim, int last);

// Drops every row of `label` from owned `tables` and frees its class id
// (ClassIdSpace::release, with remove_class_rows renumbering the last id's
// rows); returns the number of rows removed (0, touching nothing, for an
// absent label). No hash map is rebuilt.
std::size_t erase_class(int label, std::size_t dim, ClassIdSpace& ids,
                        std::span<RowTables> tables);

// One row of a store, read in place, with the store's cached ‖r‖² (every
// store computes it with nn::squared_norm's formula), class id and label.
struct RowRef {
  std::uint64_t row_id;
  const float* data;
  double sq_norm;
  int class_id;
  int label;
};

// A store's rows in global insertion-id order: a function of the adds and
// removals alone, not of how the store is sharded. IVF builds cluster rows
// in this order, and wf::io saves a reference set in it.
std::vector<RowRef> rows_by_id(const ReferenceStore& store);

// Cross-table validation for the restore paths: every table's columns agree
// with its row count (and `dim`), every class id lies in `ids`, every row id
// lies below `next_row_id`, which may not exceed kMaxRowIds, and no row id
// repeats across the tables. Throws std::invalid_argument naming the first
// violation.
void check_row_tables(std::span<const RowTables> tables, std::size_t dim,
                      const ClassIdSpace& ids, std::uint64_t next_row_id);

}  // namespace wf::core
