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
// The fused visitor (scan_tile): each tile query keeps ONE bounded k-heap of
// (dist, key) candidates across every shard it scans — the standard IVF
// per-query heap — plus, for rankings, a per-class nearest-distance row and
// the list of class ids whose nearest distance dropped below kFar. Callers
// finalize straight from the heap and only ever sort the touched classes; a
// depth-1 ranking skips the per-class row and reads the heap alone.
//
// Determinism: shards are visited in ascending index order and queries in
// ascending tile order within a shard. Candidate keys (dist, insertion id)
// are unique, so the k smallest are the same set in any visiting order and
// a probe list covering all shards is bit-identical to the exhaustive scan.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/knn.hpp"
#include "core/reference_store.hpp"
#include "nn/matrix.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace wf::core::detail {

inline constexpr std::size_t kQueryTile = 32;  // queries per GEMM tile
inline constexpr double kFar = 1e300;         // distance of a class no scan reached

// Candidate keys: insertion ids are unique, so comparing packed keys compares
// insertion ids — the pair's lexicographic < therefore orders candidates by
// (dist, gid), identical to a partial_sort over (dist, index) pairs of one
// unsharded scan, while keeping heap elements at 16 bytes.
inline constexpr std::uint64_t kClassMask = (std::uint64_t{1} << kCandidateClassBits) - 1;

inline std::uint64_t pack_key(std::uint64_t gid, int class_id) {
  return (gid << kCandidateClassBits) | static_cast<std::uint64_t>(class_id);
}

inline std::size_t class_of(const Candidate& c) {
  return static_cast<std::size_t>(c.second & kClassMask);
}

// Offers `entry` to the bounded max-heap of the k smallest candidates. A
// full heap takes `entry` in place of its top with one sift-down, about half
// the moves of pop_heap + push_heap. Only the heap's set and top are part of
// any result (callers read the top, count the set or sort it), so its
// internal order may differ from the std::pop_heap one.
inline void offer(std::vector<Candidate>& heap, std::size_t k, const Candidate& entry) {
  if (heap.size() < k) {
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end());
  } else if (k > 0 && entry < heap.front()) {
    Candidate* const h = heap.data();
    const std::size_t n = heap.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && h[child] < h[child + 1]) ++child;
      if (!(entry < h[child])) break;
      h[hole] = h[child];
      hole = child;
    }
    h[hole] = entry;
  }
}

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

// The calling thread's accumulators for one query tile, reused across tiles
// and calls so the hot paths allocate nothing in steady state. `best` holds
// kQueryTile rows of `stride` class ids and is kFar everywhere except at
// the first n_touched[q] ids of touched_of(q); begin() restores that by
// resetting only those entries, so a tile costs O(touched), not O(classes).
// A touched row has room for stride + 1 ids: every class id at most once,
// plus the slot the branch-free append writes before deciding to keep it.
struct TileScan {
  std::vector<double> qnorms = std::vector<double>(kQueryTile);
  std::vector<std::vector<Candidate>> heaps =
      std::vector<std::vector<Candidate>>(kQueryTile);  // per query: bounded k-heap
  std::vector<double> best;  // kQueryTile x stride
  std::vector<std::uint32_t> touched = std::vector<std::uint32_t>(kQueryTile);  // x (stride + 1)
  std::vector<std::size_t> n_touched = std::vector<std::size_t>(kQueryTile);
  std::size_t stride = 0;

  double* best_of(std::size_t q) { return best.data() + q * stride; }
  std::uint32_t* touched_of(std::size_t q) { return touched.data() + q * (stride + 1); }

  void begin(std::size_t n_class_ids) {
    if (n_class_ids > stride) {
      stride = n_class_ids;
      best.assign(kQueryTile * stride, kFar);
      touched.assign(kQueryTile * (stride + 1), 0);
    } else {
      for (std::size_t q = 0; q < kQueryTile; ++q) {
        double* row = best_of(q);
        const std::uint32_t* ids = touched_of(q);
        for (std::size_t t = 0; t < n_touched[q]; ++t) row[ids[t]] = kFar;
      }
    }
    std::fill(n_touched.begin(), n_touched.end(), 0);
    for (std::vector<Candidate>& heap : heaps) heap.clear();
  }
};

// The distance at or below which scan_tile offers a row to `heap`: +inf
// while it holds fewer than k candidates, its top once full, and -inf for
// k = 0, where nothing is kept.
inline double heap_bound(const std::vector<Candidate>& heap, std::size_t k) {
  if (heap.size() < k) return std::numeric_limits<double>::infinity();
  return k == 0 ? -std::numeric_limits<double>::infinity() : heap.front().first;
}

// Scans the `rows`-query tile at `queries` over the slice's shards with the
// fused visitor and returns the calling thread's TileScan: heaps[q] holds
// query q's k smallest (dist, key) candidates over every row it scanned,
// and, when kPerClass, best_of(q) and the first n_touched[q] ids of
// touched_of(q) its per-class nearest distances. The per-row work has no
// data-dependent branch except the rare heap offer: a row is offered only
// when dist <= the local heap bound (or, while the heap fills, always — a
// NaN distance included), and its key is built only then.
template <bool kPerClass>
TileScan& scan_tile(const ReferenceStore& refs, const float* queries, std::size_t rows,
                    std::size_t k, std::size_t slice_index, std::size_t slice_count) {
  thread_local TileScan sc;
  const std::size_t dim = refs.dim();
  sc.begin(kPerClass ? refs.n_class_ids() : 0);
  for (std::size_t q = 0; q < rows; ++q) sc.qnorms[q] = nn::squared_norm(queries + q * dim, dim);
  scan_tiles(refs, queries, rows, slice_index, slice_count,
             [&](const ShardView& shard, std::size_t q, const float* dots) {
               WF_DCHECK(shard.sq_norms != nullptr && shard.class_ids != nullptr &&
                             shard.row_ids != nullptr,
                         "scan_tile: shard tables missing");
               const double qnorm = sc.qnorms[q];
               std::vector<Candidate>& heap = sc.heaps[q];
               [[maybe_unused]] double* best = sc.best_of(q);
               [[maybe_unused]] std::uint32_t* touched = sc.touched_of(q);
               [[maybe_unused]] std::size_t n_touched = sc.n_touched[q];
               bool filling = heap.size() < k;
               double bound = heap_bound(heap, k);
               for (std::size_t j = 0; j < shard.rows; ++j) {
                 double dist = qnorm + shard.sq_norms[j] - 2.0 * static_cast<double>(dots[j]);
                 if (dist < 0.0) dist = 0.0;
                 const int id = shard.class_ids[j];
                 if constexpr (kPerClass) {
                   double& b = best[static_cast<std::size_t>(id)];
                   touched[n_touched] = static_cast<std::uint32_t>(id);
                   n_touched += static_cast<std::size_t>((b >= kFar) & (dist < b));
                   b = dist < b ? dist : b;
                 }
                 if (dist <= bound || filling) {
                   offer(heap, k, {dist, pack_key(shard.row_ids[j], id)});
                   filling = heap.size() < k;
                   bound = heap_bound(heap, k);
                 }
               }
               if constexpr (kPerClass) sc.n_touched[q] = n_touched;
             });
  return sc;
}

}  // namespace wf::core::detail
