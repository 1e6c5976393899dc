#include "core/sharded_reference_set.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

namespace wf::core {

ShardedReferenceSet::ShardedReferenceSet(std::size_t dim, std::size_t n_shards) : dim_(dim) {
  if (n_shards == 0) n_shards = default_shard_count();
  shards_.resize(n_shards);
}

std::size_t ShardedReferenceSet::default_shard_count() {
  if (const std::size_t configured = util::Env::shards(); configured > 0) return configured;
  return util::global_pool().size();
}

void ShardedReferenceSet::add(std::span<const float> embedding, int label) {
  if (embedding.size() != dim_)
    throw std::invalid_argument("ShardedReferenceSet::add: embedding width mismatch");
  if (next_row_id_ >= kMaxRowIds)
    throw std::invalid_argument("ShardedReferenceSet::add: row ids exhausted (2^40)");
  if (shards_.empty()) shards_.resize(1);
  const int class_id = ids_.intern(label);
  shards_[next_row_id_ % shards_.size()].append(
      embedding, nn::squared_norm(embedding.data(), dim_), class_id, next_row_id_);
  ++next_row_id_;
  ++size_;
}

void ShardedReferenceSet::add_all(const nn::Matrix& embeddings, const std::vector<int>& labels) {
  if (embeddings.rows() != labels.size())
    throw std::invalid_argument("ShardedReferenceSet::add_all: rows != labels");
  for (std::size_t i = 0; i < embeddings.rows(); ++i) add(embeddings.row_span(i), labels[i]);
}

void ShardedReferenceSet::remove_class(int label) {
  size_ -= erase_class(label, dim_, ids_, shards_);
}

ShardedReferenceSet ShardedReferenceSet::restore(std::size_t dim, std::uint64_t next_row_id,
                                                 std::vector<int> id_to_label,
                                                 std::vector<ShardTables> tables) {
  if (tables.empty()) throw std::invalid_argument("ShardedReferenceSet::restore: no tables");
  ShardedReferenceSet out(dim, default_shard_count());
  try {
    out.ids_ = ClassIdSpace(std::move(id_to_label));
    check_row_tables(tables, dim, out.ids_, next_row_id);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("ShardedReferenceSet::restore: ") + e.what());
  }
  out.next_row_id_ = next_row_id;
  // Deal by row id, add()'s rule, freeing each stored table once dealt.
  std::vector<std::size_t> rows(out.shards_.size());
  for (const RowTables& table : tables)
    for (const std::uint64_t row_id : table.row_ids) ++rows[row_id % rows.size()];
  for (std::size_t s = 0; s < rows.size(); ++s) out.shards_[s].reserve(rows[s], dim);
  for (RowTables& table : tables) {
    for (std::size_t i = 0; i < table.rows(); ++i) {
      const std::uint64_t row_id = table.row_ids[i];
      out.shards_[row_id % out.shards_.size()].append(
          std::span<const float>(table.data.data() + i * dim, dim), table.sq_norms[i],
          table.class_ids[i], row_id);
    }
    out.size_ += table.rows();
    table = RowTables{};
  }
  return out;
}

ShardView ShardedReferenceSet::shard_view(std::size_t shard) const {
  WF_CHECK(shard < shards_.size(), "shard_view: shard index out of range");
  return shards_[shard].view();
}

std::vector<int> ShardedReferenceSet::classes() const {
  std::vector<int> out = ids_.labels();
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace wf::core
