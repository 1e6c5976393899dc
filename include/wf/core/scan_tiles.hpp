#pragma once

// The one shard traversal behind every reference-store scan (k-NN ranking,
// scatter/gather slice scans, open-world k-th distances). A tile of queries
// is matched against the shards it probes with one GEMM per shard, so each
// shard's rows stream once per tile, and a visitor folds every (shard,
// query) row of dot products into its own accumulators.
//
// Exhaustive stores: every query of the tile probes every shard of the
// slice, so the tile itself is the GEMM operand. Pruned (IVF-style) stores:
// each query's probe list is turned into a (shard, query) schedule grouped
// by shard, and only the queries probing a shard are gathered into its GEMM.
//
// Determinism: shards are visited in ascending index order and queries in
// ascending tile order within a shard. The downstream merges are
// order-independent anyway (unique (dist, insertion-id) keys), so a probe
// list covering all shards is bit-identical to the exhaustive scan.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/reference_store.hpp"
#include "nn/matrix.hpp"
#include "util/thread_pool.hpp"

namespace wf::core::detail {

inline constexpr std::size_t kQueryTile = 32;  // queries per GEMM tile

// Calls body(t0, rows) for consecutive tiles [t0, t0 + rows) of m queries,
// with tiles spread across the global pool.
template <typename Body>
void for_each_tile(std::size_t m, Body&& body) {
  util::global_pool().parallel_blocks(0, m, kQueryTile, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t t0 = lo; t0 < hi; t0 += kQueryTile)
      body(t0, std::min(hi, t0 + kQueryTile) - t0);
  });
}

// Calls visit(shard_view, tile_local_query, dots_row) for every scanned
// (shard, query) pair of the `rows`-query tile at `queries` (row-major,
// refs.dim() wide), where dots_row[j] = <query, row j> over the shard's
// rows. Only shards s ≡ slice_index (mod slice_count) are scanned; empty
// shards are skipped.
template <typename Visit>
void scan_tiles(const ReferenceStore& refs, const float* queries, std::size_t rows,
                std::size_t slice_index, std::size_t slice_count, Visit&& visit) {
  const std::size_t dim = refs.dim();
  thread_local std::vector<float> dots;
  // One GEMM of `group` operand rows against shard s; operand row g is
  // tile query query_of(g).
  const auto gemm_shard = [&](std::size_t s, const float* operand, std::size_t group,
                              auto&& query_of) {
    const ShardView shard = refs.shard_view(s);
    if (shard.rows == 0) return;
    dots.resize(group * shard.rows);
    nn::gemm_nt_serial(operand, group, shard.data, shard.rows, dim, dots.data());
    for (std::size_t g = 0; g < group; ++g)
      visit(shard, query_of(g), dots.data() + g * shard.rows);
  };

  if (!refs.pruned()) {
    for (std::size_t s = slice_index; s < refs.shard_count(); s += slice_count)
      gemm_shard(s, queries, rows, [](std::size_t g) { return g; });
    return;
  }

  thread_local std::vector<std::size_t> probes;
  thread_local std::vector<std::pair<std::size_t, std::uint32_t>> pairs;
  thread_local std::vector<float> gathered;
  pairs.clear();
  for (std::size_t q = 0; q < rows; ++q) {
    refs.probe_shards({queries + q * dim, dim}, probes);
    for (const std::size_t s : probes)
      if (s % slice_count == slice_index) pairs.emplace_back(s, static_cast<std::uint32_t>(q));
  }
  std::sort(pairs.begin(), pairs.end());
  for (std::size_t lo = 0; lo < pairs.size();) {
    std::size_t hi = lo + 1;
    while (hi < pairs.size() && pairs[hi].first == pairs[lo].first) ++hi;
    const std::size_t group = hi - lo;
    gathered.resize(group * dim);
    for (std::size_t g = 0; g < group; ++g)
      std::copy_n(queries + pairs[lo + g].second * dim, dim, gathered.data() + g * dim);
    gemm_shard(pairs[lo].first, gathered.data(), group,
               [&](std::size_t g) { return static_cast<std::size_t>(pairs[lo + g].second); });
    lo = hi;
  }
}

}  // namespace wf::core::detail
