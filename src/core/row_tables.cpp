#include "core/row_tables.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace wf::core {

void RowTables::append(std::span<const float> embedding, double sq_norm, int class_id,
                       std::uint64_t row_id) {
  data.insert(data.end(), embedding.begin(), embedding.end());
  sq_norms.push_back(sq_norm);
  class_ids.push_back(class_id);
  row_ids.push_back(row_id);
}

void RowTables::reserve(std::size_t rows, std::size_t dim) {
  data.reserve(rows * dim);
  sq_norms.reserve(rows);
  class_ids.reserve(rows);
  row_ids.reserve(rows);
}

ClassIdSpace::ClassIdSpace(std::vector<int> labels_by_id) : labels_(std::move(labels_by_id)) {
  if (labels_.size() > kMaxClassIds)
    throw std::invalid_argument("class-id table holds more than 2^24 ids");
  for (std::size_t id = 0; id < labels_.size(); ++id)
    if (!ids_.emplace(labels_[id], static_cast<int>(id)).second)
      throw std::invalid_argument("class-id table repeats a label");
}

int ClassIdSpace::find(int label) const {
  const auto it = ids_.find(label);
  return it == ids_.end() ? -1 : it->second;
}

int ClassIdSpace::intern(int label) {
  if (const int id = find(label); id >= 0) return id;
  if (labels_.size() == kMaxClassIds)
    throw std::invalid_argument("class-id space full: more than 2^24 classes");
  const int id = static_cast<int>(labels_.size());
  ids_.emplace(label, id);
  labels_.push_back(label);
  return id;
}

void ClassIdSpace::release(int id) {
  const auto slot = static_cast<std::size_t>(id);
  ids_.erase(labels_[slot]);
  if (slot + 1 != labels_.size()) {
    labels_[slot] = labels_.back();
    ids_[labels_[slot]] = id;
  }
  labels_.pop_back();
}

std::size_t remove_class_rows(const RowColumns& t, std::size_t dim, int victim, int last) {
  std::size_t n = t.rows;
  // A row moved into slot i is examined again before i advances.
  for (std::size_t i = 0; i < n;) {
    if (t.class_ids[i] != victim) {
      if (t.class_ids[i] == last) t.class_ids[i] = victim;
      ++i;
      continue;
    }
    if (--n != i) {
      std::copy_n(t.data + n * dim, dim, t.data + i * dim);
      t.sq_norms[i] = t.sq_norms[n];
      t.class_ids[i] = t.class_ids[n];
      t.row_ids[i] = t.row_ids[n];
    }
  }
  return n;
}

std::size_t erase_class(int label, std::size_t dim, ClassIdSpace& ids,
                        std::span<RowTables> tables) {
  const int victim = ids.find(label);
  if (victim < 0) return 0;
  const int last = static_cast<int>(ids.size()) - 1;
  std::size_t removed = 0;
  for (RowTables& t : tables) {
    const std::size_t n = remove_class_rows(t.columns(), dim, victim, last);
    removed += t.rows() - n;
    t.data.resize(n * dim);
    t.sq_norms.resize(n);
    t.class_ids.resize(n);
    t.row_ids.resize(n);
  }
  ids.release(victim);
  return removed;
}

void check_row_tables(std::span<const RowTables> tables, std::size_t dim,
                      const ClassIdSpace& ids, std::uint64_t next_row_id) {
  if (next_row_id > kMaxRowIds)
    throw std::invalid_argument("row ids beyond 2^40 do not fit a candidate key");
  for (const RowTables& t : tables) {
    const std::size_t rows = t.rows();
    // Overflow-safe rows x dim check: divide instead of multiplying.
    const bool data_consistent =
        rows == 0 ? t.data.empty()
                  : (dim != 0 && t.data.size() / dim == rows && t.data.size() % dim == 0);
    if (!data_consistent || t.sq_norms.size() != rows || t.class_ids.size() != rows)
      throw std::invalid_argument("row tables disagree on their row count");
    for (std::size_t i = 0; i < rows; ++i) {
      const int id = t.class_ids[i];
      if (id < 0 || static_cast<std::size_t>(id) >= ids.size())
        throw std::invalid_argument("row class id out of range");
      if (t.row_ids[i] >= next_row_id)
        throw std::invalid_argument("row id not below the next row id");
    }
  }
  // The merge and finalize tie-breaks rely on unique (distance, row id)
  // candidate keys.
  std::vector<std::uint64_t> row_ids;
  for (const RowTables& t : tables)
    row_ids.insert(row_ids.end(), t.row_ids.begin(), t.row_ids.end());
  std::sort(row_ids.begin(), row_ids.end());
  if (std::adjacent_find(row_ids.begin(), row_ids.end()) != row_ids.end())
    throw std::invalid_argument("row id repeats");
}

std::vector<RowRef> rows_by_id(const ReferenceStore& store) {
  std::vector<RowRef> rows;
  rows.reserve(store.size());
  const std::size_t dim = store.dim();
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    const ShardView shard = store.shard_view(s);
    for (std::size_t j = 0; j < shard.rows; ++j)
      rows.push_back({shard.row_ids[j], shard.data + j * dim, shard.sq_norms[j],
                      shard.class_ids[j],
                      store.label_of_id(static_cast<std::size_t>(shard.class_ids[j]))});
  }
  std::sort(rows.begin(), rows.end(),
            [](const RowRef& a, const RowRef& b) { return a.row_id < b.row_id; });
  return rows;
}

}  // namespace wf::core
