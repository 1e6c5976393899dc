#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace wf::core {

// Candidate keys (core/knn.hpp) pack a row's global insertion id into the
// upper 40 bits and its dense class id into the lower kCandidateClassBits,
// so a store holds row ids below kMaxRowIds and at most kMaxClassIds class
// ids. Every store rejects input past either limit: a wider id would
// collide with another row's key and break the unique (dist, row id)
// tie-break.
inline constexpr std::uint64_t kCandidateClassBits = 24;
inline constexpr std::uint64_t kMaxClassIds = std::uint64_t{1} << kCandidateClassBits;
inline constexpr std::uint64_t kMaxRowIds = std::uint64_t{1} << (64 - kCandidateClassBits);

// Read-only view of one shard's dense side tables, consumed by the k-NN and
// open-world query kernels. `class_ids` indexes the *store-global* dense
// class-id space so per-class stats merged across shards land in one flat
// array. `row_ids` carries each row's global insertion number, the distance
// tie-break key; every non-empty shard provides it.
struct ShardView {
  const float* data = nullptr;             // rows x dim, row-major
  const double* sq_norms = nullptr;        // cached ‖r‖² per row
  const int* class_ids = nullptr;          // dense global class id per row
  const std::uint64_t* row_ids = nullptr;  // global tie-break id per row
  std::size_t rows = 0;
};

// Shared interface of the two reference stores (ShardedReferenceSet, and
// index::MappedIndex, the IVF index served from its file): the query
// kernels scan shard by shard, folding every row into per-query
// accumulators, without knowing the storage layout. The contract is exact —
// votes, per-class nearest distances and k-th-neighbour distances are
// identical to one linear scan over the union of all shards.
class ReferenceStore {
 public:
  virtual ~ReferenceStore() = default;

  virtual std::size_t dim() const = 0;
  virtual std::size_t size() const = 0;  // rows across all shards
  virtual std::size_t shard_count() const = 0;
  virtual ShardView shard_view(std::size_t shard) const = 0;

  // Dense global class-id space shared by every shard's class_ids table.
  virtual std::size_t n_class_ids() const = 0;
  virtual int label_of_id(std::size_t id) const = 0;

  // Query-adaptive probing (index::MappedIndex). A pruned store picks the
  // shards worth scanning per query instead of being scanned exhaustively;
  // the kernels route every query through probe_shards() when pruned() is
  // true. probe_shards must append distinct shard indices (a repeat would
  // double-count votes) deterministically for a given query. The default —
  // all shards, ascending — makes an exhaustive store answer correctly even
  // if a caller probes it anyway.
  virtual bool pruned() const { return false; }
  virtual void probe_shards(std::span<const float> query, std::vector<std::size_t>& out) const {
    (void)query;
    out.clear();
    for (std::size_t s = 0; s < shard_count(); ++s) out.push_back(s);
  }
};

}  // namespace wf::core
