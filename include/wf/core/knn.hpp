#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/reference_store.hpp"
#include "nn/matrix.hpp"

namespace wf::core {

// One entry of a classifier's ranked output: classes sorted best-first.
struct RankedLabel {
  int label = -1;
  int votes = 0;        // neighbours (or trees) voting for this class
  double distance = 0;  // tie-break: closest reference of this class
};

// One top-k candidate as exchanged between scatter/gather nodes: the
// squared distance plus a packed key carrying the row's global insertion id
// (upper bits) and its dense global class id (lower kCandidateClassBits; the
// limits live in core/reference_store.hpp). Keys are unique per row, so the
// pair's lexicographic < totally orders candidates by (dist, insertion id)
// — the exact merge tie-break of the sharded scan.
using Candidate = std::pair<double, std::uint64_t>;

// KnnClassifier::rank_batch depth that ranks every class of the store.
inline constexpr std::size_t kTotalRanking = std::numeric_limits<std::size_t>::max();

using ClassNearest = std::pair<std::uint32_t, double>;  // (class id, distance)
inline constexpr double kFar = 1e300;  // distance of a class no scan reached

// A partial scan of some queries: a node's scan of the shards s ≡
// slice_index (mod slice_count), or a shard group of a split query tile
// (core/scan_tiles.hpp). Per query: the k best candidates, and the class
// id and nearest distance (< kFar) of every class the part reached.
// scan_slice's form is canonical — candidates ascending, nearest by class
// id — so equal scans compare equal at any thread count or group split.
// merge_slice_scans folds the slices of one store back into
// KnnClassifier::rank_batch's answer, bit for bit.
struct SliceScan {
  std::size_t n_class_ids = 0;
  // Reference rows this slice's shards hold — the coordinator sums these
  // over the slices it gathered to decide whether coverage is full or the
  // answer must be flagged degraded. 0 from pre-extension peers ("unknown").
  std::uint64_t n_rows_scanned = 0;
  std::vector<std::vector<Candidate>> candidates;  // per query
  std::vector<std::vector<ClassNearest>> nearest;  // per query
};

// The gather half: fold per-slice candidates (union, then keep the k
// globally smallest by the unique (dist, key) order) and per-class nearest
// distances (min over the slices that reached the class) into final
// rankings, in O(touched) per query — the fold that also joins a split
// tile's shard groups (core/scan_tiles.hpp). `labels_by_id` maps dense
// class ids to page labels; `n_total` is the store's total row count,
// bounding k exactly as rank_batch does. Each ranking is the first
// min(depth, n_class_ids) entries of the total one, as in rank_batch. Slice
// fold order does not affect the result. Mismatched slice shapes throw
// std::invalid_argument, a class id outside the space util::CheckError.
std::vector<std::vector<RankedLabel>> merge_slice_scans(std::span<const int> labels_by_id,
                                                        int k, std::size_t n_total,
                                                        const std::vector<SliceScan>& slices,
                                                        std::size_t depth = kTotalRanking);

// k-nearest-neighbour voting in embedding space. Produces a *total* ranking
// over every class in the reference store (voted classes first, the rest
// ordered by nearest-reference distance) so top-n curves and per-class
// guess counts are well defined for any n — or, on request, just its first
// entries (rank_batch's depth).
//
// Queries run shard-by-shard against any ReferenceStore: one blocked GEMM
// tile per shard (distances via ‖q‖² + ‖r‖² − 2·q·r with the reference
// norms cached per shard) feeding one top-k candidate heap per query across
// all its shards, and a finalize that orders only the classes the scan
// reached, in O(touched) — votes and per-class nearest distances are
// identical to a single unsharded scan.
// Query tiles are spread across the thread pool; on an exhaustive store, a
// batch of fewer tiles than pool threads (rank() is a one-row rank_batch)
// also splits each tile's shards into groups scanned in parallel and folded
// back with the merge_slice_scans fold, bit-identically
// (core/scan_tiles.hpp).
class KnnClassifier {
 public:
  explicit KnnClassifier(int k) : k_(k) {}

  int k() const { return k_; }

  std::vector<RankedLabel> rank(const ReferenceStore& references,
                                std::span<const float> query) const;

  // One ranking per row of `queries` (queries.cols() == references.dim()):
  // the first min(depth, n_class_ids) entries of the total ranking, bit for
  // bit (labels, votes, distances, order). Finalize sorts the voted classes
  // (at most k) by (votes, distance, label), orders the touched classes
  // without votes by (distance, label) with a stable radix sort over label
  // rank and an order-preserving distance key (a comparison sort when fewer
  // than 64), and follows them with the label-ordered untouched tail.
  // `depth` only truncates: the tail is walked only as far as it reaches,
  // and the touched classes without votes are not sorted when the voted
  // ones fill it.
  //
  // depth == 1 with k >= 1 skips the per-class rows altogether: the scan
  // keeps only each query's k-heap, and the front is the voted class best by
  // (votes, distance, label), its distance the minimum over its candidates.
  // That is exact because the heap holds the k smallest (dist, row id) keys,
  // so a voted class's nearest row is always one of them. A query whose heap
  // ends empty (every probed shard empty) or holding a NaN distance (which
  // can enter while the heap fills and never leaves) is re-ranked through
  // the per-class path.
  std::vector<std::vector<RankedLabel>> rank_batch(const ReferenceStore& references,
                                                   const nn::Matrix& queries,
                                                   std::size_t depth = kTotalRanking) const;

  // Scan only the shards s with s % slice_count == slice_index of
  // `references` (which must be the full store — k is bounded by the
  // store's total row count, as in rank_batch) and keep each query's k best
  // candidates and per-class nearest distances over those shards, in
  // SliceScan's canonical form. This is what a scatter/gather backend
  // computes before shipping candidates to the coordinator's
  // merge_slice_scans.
  SliceScan scan_slice(const ReferenceStore& references, const nn::Matrix& queries,
                       std::size_t slice_index, std::size_t slice_count) const;

 private:
  int k_;
};

}  // namespace wf::core
