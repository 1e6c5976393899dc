#include "core/knn.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "core/scan_tiles.hpp"
#include "util/check.hpp"

namespace wf::core {

namespace {

// Candidates (see knn.hpp): insertion ids are unique, so comparing packed
// keys compares insertion ids — pair's lexicographic < therefore orders
// candidates by (dist, gid), identical to a partial_sort over (dist, index)
// pairs of one unsharded scan, while keeping heap elements at 16 bytes.
constexpr std::uint64_t kClassBits = kCandidateClassBits;  // ~16.7M classes, ~1.1T rows
constexpr std::uint64_t kClassMask = (std::uint64_t{1} << kClassBits) - 1;

inline std::uint64_t pack_key(std::uint64_t gid, int class_id) {
  return (gid << kClassBits) | static_cast<std::uint64_t>(class_id);
}

// Reusable per-thread workspace: query norms, per-shard heap, the current
// tile's candidates and per-class bests, and vote counts. Thread-local so
// concurrent pool tasks never contend and the hot paths allocate nothing
// in steady state.
struct RankScratch {
  std::vector<double> qnorms;
  std::vector<Candidate> heap;  // bounded max-heap of one shard's k best
  std::vector<std::vector<Candidate>> merged =
      std::vector<std::vector<Candidate>>(detail::kQueryTile);  // per tile query
  std::vector<double> best;  // tile queries x global class ids
  std::vector<int> votes;    // per global class id
};

RankScratch& scratch() {
  thread_local RankScratch s;
  return s;
}

// Scan one shard given the query's dot products against its rows: fold the
// per-class nearest distance into `best` (a flat per-class array) and
// append the shard's k smallest (dist, gid) candidates to `merged`.
void scan_shard(const ShardView& shard, const float* dots, double query_norm, std::size_t k,
                std::vector<Candidate>& heap, double* best, std::vector<Candidate>& merged) {
  WF_DCHECK(shard.rows == 0 || (shard.sq_norms != nullptr && shard.class_ids != nullptr &&
                                shard.row_ids != nullptr),
            "scan_shard: shard tables missing");
  const auto cmp = [](const Candidate& a, const Candidate& b) { return a < b; };
  heap.clear();
  for (std::size_t j = 0; j < shard.rows; ++j) {
    double dist = query_norm + shard.sq_norms[j] - 2.0 * static_cast<double>(dots[j]);
    if (dist < 0.0) dist = 0.0;
    const int id = shard.class_ids[j];
    if (dist < best[static_cast<std::size_t>(id)]) best[static_cast<std::size_t>(id)] = dist;
    const Candidate entry{dist, pack_key(shard.row_ids[j], id)};
    if (heap.size() < k) {
      heap.push_back(entry);
      std::push_heap(heap.begin(), heap.end(), cmp);
    } else if (k > 0 && entry < heap.front()) {
      std::pop_heap(heap.begin(), heap.end(), cmp);
      heap.back() = entry;
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
  }
  merged.insert(merged.end(), heap.begin(), heap.end());
}

// Scan the tile [t0, t0 + rows) of `queries` over the slice's shards:
// query q's per-class bests land in best[q * n_class_ids, ...) and its
// per-shard k-best candidates are appended to candidates[q].
void scan_tile(const ReferenceStore& refs, const nn::Matrix& queries, std::size_t t0,
               std::size_t rows, std::size_t k, std::size_t slice_index,
               std::size_t slice_count, double* best, std::vector<Candidate>* candidates) {
  const std::size_t dim = refs.dim();
  const std::size_t n_ids = refs.n_class_ids();
  RankScratch& sc = scratch();
  sc.qnorms.resize(rows);
  for (std::size_t q = 0; q < rows; ++q)
    sc.qnorms[q] = nn::squared_norm(queries.data() + (t0 + q) * dim, dim);
  detail::scan_tiles(refs, queries.data() + t0 * dim, rows, slice_index, slice_count,
                     [&](const ShardView& shard, std::size_t q, const float* dots) {
                       scan_shard(shard, dots, sc.qnorms[q], k, sc.heap, best + q * n_ids,
                                  candidates[q]);
                     });
}

// Keep the k globally smallest candidates, count their votes per class and
// emit the sorted ranking. The union of per-shard k-best lists always
// contains the global k best, so this equals the unsharded selection; the
// candidate set selected by nth_element is order-independent because keys
// are unique, which is what makes the scatter/gather fold exact.
template <typename LabelOf>
void finalize_candidates(std::size_t n_ids, LabelOf label_of, std::size_t k,
                         std::vector<Candidate>& merged, std::vector<int>& votes,
                         const double* best, std::vector<RankedLabel>& out) {
  if (merged.size() > k) {
    std::nth_element(merged.begin(), merged.begin() + static_cast<std::ptrdiff_t>(k),
                     merged.end());
    merged.resize(k);
  }
  votes.assign(n_ids, 0);
  for (const Candidate& c : merged) {
    WF_DCHECK((c.second & kClassMask) < n_ids, "finalize: candidate class id out of range");
    ++votes[static_cast<std::size_t>(c.second & kClassMask)];
  }
  out.clear();
  out.reserve(n_ids);
  for (std::size_t id = 0; id < n_ids; ++id)
    out.push_back({label_of(id), votes[id], best[id]});
  std::sort(out.begin(), out.end(), [](const RankedLabel& a, const RankedLabel& b) {
    if (a.votes != b.votes) return a.votes > b.votes;
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.label < b.label;
  });
}

}  // namespace

std::vector<RankedLabel> KnnClassifier::rank(const ReferenceStore& references,
                                             std::span<const float> query) const {
  nn::Matrix row(1, query.size());
  row.set_row(0, query);
  std::vector<std::vector<RankedLabel>> rankings = rank_batch(references, row);
  return std::move(rankings.front());
}

std::vector<std::vector<RankedLabel>> KnnClassifier::rank_batch(
    const ReferenceStore& references, const nn::Matrix& queries) const {
  const std::size_t m = queries.rows();
  std::vector<std::vector<RankedLabel>> rankings(m);
  const std::size_t n = references.size();
  if (m == 0 || n == 0) return rankings;
  if (queries.cols() != references.dim())
    throw std::invalid_argument("KnnClassifier::rank_batch: query width mismatch");
  const std::size_t n_ids = references.n_class_ids();
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(std::max(0, k_)), n);
  const auto label_of = [&](std::size_t id) { return references.label_of_id(id); };

  // Tile-local accumulators, finalized before the next tile: memory stays
  // bounded by the tile size, not the query count.
  detail::for_each_tile(m, [&](std::size_t t0, std::size_t rows) {
    RankScratch& sc = scratch();
    sc.best.assign(rows * n_ids, 1e300);
    for (std::size_t q = 0; q < rows; ++q) sc.merged[q].clear();
    scan_tile(references, queries, t0, rows, k, 0, 1, sc.best.data(), sc.merged.data());
    for (std::size_t q = 0; q < rows; ++q)
      finalize_candidates(n_ids, label_of, k, sc.merged[q], sc.votes, sc.best.data() + q * n_ids,
                          rankings[t0 + q]);
  });
  return rankings;
}

SliceScan KnnClassifier::scan_slice(const ReferenceStore& references, const nn::Matrix& queries,
                                    std::size_t slice_index, std::size_t slice_count) const {
  if (slice_count == 0 || slice_index >= slice_count)
    throw std::invalid_argument("KnnClassifier::scan_slice: slice index out of range");
  const std::size_t m = queries.rows();
  const std::size_t n = references.size();
  SliceScan out;
  out.n_queries = m;
  out.n_class_ids = references.n_class_ids();
  out.candidates.resize(m);
  out.best.assign(m * out.n_class_ids, 1e300);
  for (std::size_t s = slice_index; s < references.shard_count(); s += slice_count)
    out.n_rows_scanned += references.shard_view(s).rows;
  if (m == 0 || n == 0) return out;
  if (queries.cols() != references.dim())
    throw std::invalid_argument("KnnClassifier::scan_slice: query width mismatch");
  // k is bounded by the *whole* store's row count, exactly as in rank_batch:
  // the slice is a partition of one store, not a smaller store.
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(std::max(0, k_)), n);

  detail::for_each_tile(m, [&](std::size_t t0, std::size_t rows) {
    scan_tile(references, queries, t0, rows, k, slice_index, slice_count,
              out.best.data() + t0 * out.n_class_ids, out.candidates.data() + t0);
  });
  return out;
}

std::vector<std::vector<RankedLabel>> merge_slice_scans(std::span<const int> labels_by_id,
                                                        int k, std::size_t n_total,
                                                        const std::vector<SliceScan>& slices) {
  const std::size_t n_ids = labels_by_id.size();
  const std::size_t m = slices.empty() ? 0 : slices.front().n_queries;
  for (const SliceScan& slice : slices) {
    if (slice.n_class_ids != n_ids)
      throw std::invalid_argument("merge_slice_scans: class-id space mismatch");
    if (slice.n_queries != m)
      throw std::invalid_argument("merge_slice_scans: query count mismatch");
  }
  std::vector<std::vector<RankedLabel>> rankings(m);
  if (n_total == 0) return rankings;
  const std::size_t kk =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(0, k)), n_total);
  std::vector<Candidate> merged;
  std::vector<double> best;
  std::vector<int> votes;
  for (std::size_t q = 0; q < m; ++q) {
    merged.clear();
    best.assign(n_ids, 1e300);
    for (const SliceScan& slice : slices) {
      merged.insert(merged.end(), slice.candidates[q].begin(), slice.candidates[q].end());
      const double* slice_best = slice.best_of(q);
      for (std::size_t id = 0; id < n_ids; ++id) best[id] = std::min(best[id], slice_best[id]);
    }
    finalize_candidates(
        n_ids, [&](std::size_t id) { return labels_by_id[id]; }, kk, merged, votes,
        best.data(), rankings[q]);
  }
  return rankings;
}

}  // namespace wf::core
