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
// finalize straight from the heap and order only the touched classes, in
// O(touched): the at most k voted ones by comparison, the rest by a radix
// sort (by comparison when they are few). A depth-1 ranking skips the
// per-class row and reads the heap alone.
//
// Scheduling (for_each_tile): a batch of at least as many query tiles as
// the pool has threads runs one tile per task. A smaller batch over an
// exhaustive store — a probe's two live loads, a single-trace rank() —
// would leave threads idle, so each tile's shards are split into G groups
// and the (tile, group) units run as one flat parallel_blocks (nested pool
// calls run inline, so a unit never forks again). Group g of slice (i, c)
// is slice (i + c·g, c·G): scan_tile's slice arguments select its shards.
// G is bounded by the slice's shard count, by the threads per tile, and by
// the tile's (row, query) pairs over kGroupPairs, so a group is never too
// small to pay for its hand-off. A pruned store is never split: each unit
// would probe every query again, repeating the centroid scan and the
// index.* probe counters, and its pair count is unknown until the probes
// are made.
//
// The fold (fold_parts) merges disjoint partial scans of one query, each a
// SliceScan — a tile's shard groups (copied out by take), or
// merge_slice_scans' slices: every candidate is offered into one k-heap,
// and each class a part reached min-folds its nearest distance into the
// per-class row, so the fold costs what the parts touched. The caller's
// finalize, front read or k-th read then sees one scan.
//
// Determinism: shards are visited in ascending index order and queries in
// ascending tile order within a shard. Candidate keys (dist, insertion id)
// are unique, so the k smallest are the same set in any visiting order or
// grouping, and a probe list covering all shards is bit-identical to the
// exhaustive scan. The one exception is a NaN distance, which breaks the
// key order (it can enter a filling heap and never leave): a query with a
// NaN in any group's heap is rescanned unsplit.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/knn.hpp"
#include "core/reference_store.hpp"
#include "nn/matrix.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace wf::core::detail {

inline constexpr std::size_t kQueryTile = 32;  // queries per GEMM tile
// Fewest (row, query) pairs a shard group of a split tile scans: below it
// the hand-off to another thread costs more than the rows save
// (bench_micro's BM_KnnProbeSmallBatch).
inline constexpr std::size_t kGroupPairs = 8192;

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

// The calling thread's TileScan: scan_tile fills it, and fold_groups folds
// a split tile's group scans into it.
inline TileScan& tile_scratch() {
  thread_local TileScan sc;
  return sc;
}

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
  TileScan& sc = tile_scratch();
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

// A NaN distance breaks the (dist, key) order: scan_tile can admit one
// while a heap fills and never evicts it, and it can displace a nearer row.
inline bool holds_nan(const std::vector<Candidate>& heap) {
  return std::any_of(heap.begin(), heap.end(),
                     [](const Candidate& c) { return std::isnan(c.first); });
}

// Folds query q of every part (a shard group of its tile, or one slice)
// into that query's k-heap and per-class rows. Candidates are offered into
// `heap`: keys are unique, so the kept set is the k smallest of the union,
// exactly what one scan over every part keeps. A class's nearest distance
// `d` is min-folded into best[id] with the visitor's own `d < b ? d : b`,
// its id appended to touched[n_touched++] the first time it drops below
// kFar. The caller checks that class ids fit the rows.
inline void fold_parts(std::span<const SliceScan> parts, std::size_t q, std::size_t k,
                       std::vector<Candidate>& heap, double* best, std::uint32_t* touched,
                       std::size_t& n_touched) {
  for (const SliceScan& part : parts) {
    for (const Candidate& c : part.candidates[q]) offer(heap, k, c);
    for (const auto& [id, d] : part.nearest[q]) {
      double& b = best[id];
      if (b >= kFar && d < b) touched[n_touched++] = id;
      b = d < b ? d : b;
    }
  }
}

// Copies query `from` of `sc` into query `to` of `part`: the k-heap as the
// scan left it and, for rankings, the (class id, nearest distance) of every
// class the scan touched, in touched order.
template <bool kPerClass>
void take(TileScan& sc, std::size_t from, SliceScan& part, std::size_t to) {
  part.candidates[to] = sc.heaps[from];
  std::vector<ClassNearest>& nearest = part.nearest[to];
  nearest.clear();
  if constexpr (kPerClass) {
    const double* best = sc.best_of(from);
    const std::uint32_t* touched = sc.touched_of(from);
    nearest.reserve(sc.n_touched[from]);
    for (std::size_t t = 0; t < sc.n_touched[from]; ++t)
      nearest.emplace_back(touched[t], best[touched[t]]);
  }
}

// G, the shard groups per tile, for `tiles` query tiles on `threads`
// threads over `shards` shards, each tile scanning `tile_pairs` (row,
// query) pairs: 1 (no split) once the tiles alone cover the threads, else
// the threads per tile, capped by the shards and by one group per
// kGroupPairs pairs.
inline std::size_t shard_groups(std::size_t tiles, std::size_t threads, std::size_t shards,
                                std::size_t tile_pairs) {
  if (tiles == 0) return 1;
  return std::max<std::size_t>(1, std::min({threads / tiles, shards, tile_pairs / kGroupPairs}));
}

// The G for_each_tile uses for m queries over the slice on the global
// pool; always 1 for a pruned store.
inline std::size_t scan_groups(const ReferenceStore& refs, std::size_t m,
                               std::size_t slice_index, std::size_t slice_count) {
  const std::size_t threads = util::global_pool().size();
  const std::size_t tiles = (m + kQueryTile - 1) / kQueryTile;
  if (refs.pruned() || tiles == 0 || tiles >= threads) return 1;
  std::size_t shards = 0;
  std::size_t slice_rows = 0;
  for (std::size_t s = slice_index; s < refs.shard_count(); s += slice_count, ++shards)
    slice_rows += refs.shard_view(s).rows;
  return shard_groups(tiles, threads, shards, m * slice_rows / tiles);
}

// Folds the group scans of the `rows`-query tile at `queries` into the
// calling thread's TileScan and returns it, shaped as scan_tile's unsplit
// scan of the tile. A query with a NaN distance in any group's heap is
// rescanned unsplit into group 0, which alone is folded, its heap as is.
template <bool kPerClass>
TileScan& fold_groups(const ReferenceStore& refs, const float* queries, std::size_t rows,
                      std::size_t k, std::size_t slice_index, std::size_t slice_count,
                      std::span<SliceScan> groups) {
  bool unsplit[kQueryTile] = {};
  for (std::size_t q = 0; q < rows; ++q) {
    for (const SliceScan& group : groups)
      if (holds_nan(group.candidates[q])) unsplit[q] = true;
    if (!unsplit[q]) continue;
    take<kPerClass>(scan_tile<kPerClass>(refs, queries + q * refs.dim(), 1, k, slice_index,
                                         slice_count),
                    0, groups[0], q);
  }
  TileScan& sc = tile_scratch();
  sc.begin(kPerClass ? refs.n_class_ids() : 0);
  for (std::size_t q = 0; q < rows; ++q) {
    if (unsplit[q]) sc.heaps[q].swap(groups[0].candidates[q]);
    fold_parts(groups.first(unsplit[q] ? 1 : groups.size()), q, k, sc.heaps[q], sc.best_of(q),
               sc.touched_of(q), sc.n_touched[q]);
  }
  return sc;
}

// Scans the m queries at `queries` (row-major, refs.dim() wide) over the
// slice's shards, kQueryTile at a time, and calls finish(t0, rows, sc) for
// each tile [t0, t0 + rows), where `sc` is the calling thread's TileScan
// holding the tile's scan as scan_tile<kPerClass> returns it. finish may
// run on any pool thread, tiles in any order; it may reuse the thread's
// TileScan (scan_tile) once it is done reading `sc`. A small batch is
// split into (tile, shard group) units and folded back first; G = 1 runs
// scan_tile and finish back to back with no copy.
template <bool kPerClass, typename Finish>
void for_each_tile(const ReferenceStore& refs, const float* queries, std::size_t m, std::size_t k,
                   std::size_t slice_index, std::size_t slice_count, Finish&& finish) {
  util::ThreadPool& pool = util::global_pool();
  const std::size_t dim = refs.dim();
  const std::size_t groups = scan_groups(refs, m, slice_index, slice_count);
  if (groups == 1) {
    pool.parallel_blocks(0, m, kQueryTile, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t t0 = lo; t0 < hi; t0 += kQueryTile) {
        const std::size_t rows = std::min(hi, t0 + kQueryTile) - t0;
        finish(t0, rows, scan_tile<kPerClass>(refs, queries + t0 * dim, rows, k, slice_index,
                                              slice_count));
      }
    });
    return;
  }
  const std::size_t tiles = (m + kQueryTile - 1) / kQueryTile;
  const auto tile_rows = [&](std::size_t t0) { return std::min(m, t0 + kQueryTile) - t0; };
  std::vector<SliceScan> units(tiles * groups);  // unit u: tile u / groups, group u % groups
  pool.parallel_blocks(0, units.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      const std::size_t t0 = u / groups * kQueryTile;
      const std::size_t rows = tile_rows(t0);
      TileScan& sc = scan_tile<kPerClass>(refs, queries + t0 * dim, rows, k,
                                          slice_index + slice_count * (u % groups),
                                          slice_count * groups);
      units[u].candidates.resize(rows);
      units[u].nearest.resize(rows);
      for (std::size_t q = 0; q < rows; ++q) take<kPerClass>(sc, q, units[u], q);
    }
  });
  pool.parallel_blocks(0, tiles, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t tile = lo; tile < hi; ++tile) {
      const std::size_t t0 = tile * kQueryTile;
      const std::size_t rows = tile_rows(t0);
      finish(t0, rows,
             fold_groups<kPerClass>(refs, queries + t0 * dim, rows, k, slice_index, slice_count,
                                    std::span(units).subspan(tile * groups, groups)));
    }
  });
}

}  // namespace wf::core::detail
