#include "core/knn.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/scan_tiles.hpp"
#include "util/check.hpp"

namespace wf::core {

namespace {

bool ranked_before(const RankedLabel& a, const RankedLabel& b) {
  if (a.votes != b.votes) return a.votes > b.votes;
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.label < b.label;
}

// The class-id space of one call: (label, id) pairs in ascending label
// order — the order of the untouched tail of every ranking — and each id's
// label rank, its position in that order.
struct ClassOrder {
  std::vector<std::pair<int, std::uint32_t>> by_label;
  std::vector<std::uint32_t> rank;

  template <typename LabelOf>
  ClassOrder(std::size_t n_ids, LabelOf label_of) : by_label(n_ids), rank(n_ids) {
    for (std::size_t id = 0; id < n_ids; ++id)
      by_label[id] = {label_of(id), static_cast<std::uint32_t>(id)};
    std::sort(by_label.begin(), by_label.end());
    for (std::size_t r = 0; r < n_ids; ++r)
      rank[by_label[r].second] = static_cast<std::uint32_t>(r);
  }

  int label_of(std::size_t id) const { return by_label[rank[id]].first; }
};

// The order-preserving image of a distance (M. Herf, "Radix Tricks", 2001):
// unsigned order of the keys is numeric order of the values. The sign bit of
// a non-negative value is set, every bit of a negative one flipped; -0.0
// folds into +0.0 first, since the two compare equal. Never called on NaN.
std::uint64_t distance_key(double d) {
  const auto bits = std::bit_cast<std::uint64_t>(d == 0.0 ? 0.0 : d);
  return bits ^ ((std::uint64_t{0} - (bits >> 63)) | (std::uint64_t{1} << 63));
}

// A touched class without votes, as sort_unvoted sees it.
struct Unvoted {
  std::uint64_t key;   // distance_key of its nearest distance
  std::uint32_t rank;  // its label rank
};

// Fewest items sort_unvoted radix-sorts: the radix sort's fixed cost (its
// twelve histograms and their prefix sums, ~1 µs) loses to a comparison
// sort below about 64 items. Without this cutoff bench_micro's BM_KnnQuery
// (one query over 32 classes) read 8.9 -> 10.0 µs.
constexpr std::size_t kRadixMinItems = 64;

// Sorts `items` by (key, rank) ascending — (distance, label). From
// kRadixMinItems on, a stable LSD radix over bytes: the four bytes of the
// rank first, then the eight of the key. One pass counts every byte's
// histogram; a byte that every item shares moves nothing, so its pass is
// skipped. `spare` is scratch.
void sort_unvoted(std::vector<Unvoted>& items, std::vector<Unvoted>& spare) {
  if (items.size() < kRadixMinItems) {
    std::sort(items.begin(), items.end(), [](const Unvoted& a, const Unvoted& b) {
      return a.key != b.key ? a.key < b.key : a.rank < b.rank;
    });
    return;
  }
  std::array<std::array<std::uint32_t, 256>, 12> count{};
  for (const Unvoted& u : items) {
    for (std::size_t b = 0; b < 4; ++b) ++count[b][(u.rank >> (8 * b)) & 0xff];
    for (std::size_t b = 0; b < 8; ++b) ++count[4 + b][(u.key >> (8 * b)) & 0xff];
  }
  spare.resize(items.size());
  const auto pass = [&](std::array<std::uint32_t, 256>& slot, auto byte_of) {
    if (slot[byte_of(items.front())] == items.size()) return;
    std::uint32_t sum = 0;
    for (std::uint32_t& c : slot) sum += std::exchange(c, sum);
    for (const Unvoted& u : items) spare[slot[byte_of(u)]++] = u;
    items.swap(spare);
  };
  for (std::size_t b = 0; b < 4; ++b)
    pass(count[b], [b](const Unvoted& u) { return (u.rank >> (8 * b)) & 0xff; });
  for (std::size_t b = 0; b < 8; ++b)
    pass(count[4 + b], [b](const Unvoted& u) { return (u.key >> (8 * b)) & 0xff; });
}

// Emits the first `depth` entries of one query's total ranking from its k
// best candidates (`kbest`, any order) and its per-class nearest distances
// (`best`, kFar except at the first n_touched ids of `touched`). The voted
// classes (at most k) lead, sorted by ranked_before. The touched classes
// without votes follow by (distance, label), ordered by sort_unvoted.
// An untouched class has no votes and distance kFar, so the rest follow in
// the precomputed label order. A voted class whose best stayed at kFar (a
// NaN distance, or a peer's inconsistent slice) is among the voted, so a
// total ranking holds every class exactly once. Depth only truncates.
void finalize(const std::vector<Candidate>& kbest, const double* best,
              const std::uint32_t* touched, std::size_t n_touched, const ClassOrder& order,
              std::size_t depth, std::vector<RankedLabel>& out) {
  const std::size_t n_ids = order.rank.size();
  thread_local std::vector<int> votes;  // all zero between calls
  thread_local std::vector<RankedLabel> voted;
  thread_local std::vector<Unvoted> unvoted, spare;
  if (votes.size() < n_ids) votes.resize(n_ids, 0);
  voted.clear();
  for (const Candidate& c : kbest) {
    const std::size_t id = detail::class_of(c);
    WF_DCHECK(id < n_ids, "finalize: candidate class id out of range");
    ++votes[id];
  }
  for (const Candidate& c : kbest) {
    const std::size_t id = detail::class_of(c);
    if (votes[id] <= 0) continue;  // class already weighed
    voted.push_back({order.label_of(id), votes[id], best[id]});
    votes[id] = -votes[id];  // still nonzero: not among the unvoted
  }
  std::sort(voted.begin(), voted.end(), ranked_before);
  const std::size_t n_out = std::min(depth, n_ids);
  out.clear();
  out.reserve(n_out);
  out.insert(out.end(), voted.begin(),
             voted.begin() + static_cast<std::ptrdiff_t>(std::min(n_out, voted.size())));
  if (out.size() < n_out) {
    unvoted.clear();
    for (std::size_t t = 0; t < n_touched; ++t)
      if (votes[touched[t]] == 0)
        unvoted.push_back({distance_key(best[touched[t]]), order.rank[touched[t]]});
    sort_unvoted(unvoted, spare);
    for (auto it = unvoted.begin(); out.size() < n_out && it != unvoted.end(); ++it) {
      const auto [label, id] = order.by_label[it->rank];
      out.push_back({label, 0, best[id]});
    }
  }
  // An exhaustive scan touches every class: no tail.
  for (auto it = order.by_label.begin(); out.size() < n_out && it != order.by_label.end(); ++it)
    if (best[it->second] >= kFar && votes[it->second] == 0) out.push_back({it->first, 0, kFar});
  for (const Candidate& c : kbest) votes[detail::class_of(c)] = 0;
}

// Depth 1 from the k-heap alone (`kbest`, any order, from a scan without
// per-class rows): votes per class, and each voted class's distance as the
// minimum over its candidates with the per-class scan's own `d < b ? d : b`
// fold from kFar. A voted class's nearest row is always among the k kept
// candidates, so this is the total ranking's front exactly — unless the heap
// is empty (a pruned store whose probed shards hold no rows) or holds a NaN
// distance, which scan_tile can admit while filling and never evicts, and
// which can displace a class's nearest row. Then it returns false and
// leaves `out` alone, and the caller ranks the query through finalize.
bool front_from_heap(const std::vector<Candidate>& kbest, const ReferenceStore& refs,
                     std::vector<RankedLabel>& out) {
  if (kbest.empty() || detail::holds_nan(kbest)) return false;
  thread_local std::vector<int> votes;       // all zero between calls
  thread_local std::vector<double> nearest;  // all kFar between calls
  if (votes.size() < refs.n_class_ids()) {
    votes.resize(refs.n_class_ids(), 0);
    nearest.resize(refs.n_class_ids(), kFar);
  }
  for (const Candidate& c : kbest) {
    const std::size_t id = detail::class_of(c);
    WF_DCHECK(id < refs.n_class_ids(), "front_from_heap: candidate class id out of range");
    ++votes[id];
    nearest[id] = c.first < nearest[id] ? c.first : nearest[id];
  }
  RankedLabel front;
  for (const Candidate& c : kbest) {
    const std::size_t id = detail::class_of(c);
    if (votes[id] == 0) continue;  // class already weighed
    const RankedLabel entry{refs.label_of_id(id), votes[id], nearest[id]};
    if (front.votes == 0 || ranked_before(entry, front)) front = entry;
    votes[id] = 0;
    nearest[id] = kFar;
  }
  out.assign(1, front);
  return true;
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
    const ReferenceStore& references, const nn::Matrix& queries, std::size_t depth) const {
  const std::size_t m = queries.rows();
  std::vector<std::vector<RankedLabel>> rankings(m);
  const std::size_t n = references.size();
  if (m == 0 || n == 0) return rankings;
  if (queries.cols() != references.dim())
    throw std::invalid_argument("KnnClassifier::rank_batch: query width mismatch");
  const std::size_t n_ids = references.n_class_ids();
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(std::max(0, k_)), n);
  const std::size_t dim = references.dim();
  // Built once, by the first tile that ranks through finalize.
  std::once_flag order_once;
  std::optional<ClassOrder> order;
  const auto finalize_tile = [&](std::size_t t0, std::size_t rows, detail::TileScan& sc) {
    std::call_once(order_once, [&] {
      order.emplace(n_ids, [&](std::size_t id) { return references.label_of_id(id); });
    });
    for (std::size_t q = 0; q < rows; ++q)
      finalize(sc.heaps[q], sc.best_of(q), sc.touched_of(q), sc.n_touched[q], *order, depth,
               rankings[t0 + q]);
  };
  if (depth != 1 || k == 0) {
    detail::for_each_tile<true>(references, queries.data(), m, k, 0, 1, finalize_tile);
    return rankings;
  }
  detail::for_each_tile<false>(
      references, queries.data(), m, k, 0, 1,
      [&](std::size_t t0, std::size_t rows, detail::TileScan& sc) {
        std::size_t redo[detail::kQueryTile];
        std::size_t n_redo = 0;
        for (std::size_t q = 0; q < rows; ++q)
          if (!front_from_heap(sc.heaps[q], references, rankings[t0 + q])) redo[n_redo++] = t0 + q;
        // The per-class rescans reuse this thread's TileScan: only after the heaps are read.
        for (std::size_t r = 0; r < n_redo; ++r)
          finalize_tile(redo[r], 1,
                        detail::scan_tile<true>(references, queries.data() + redo[r] * dim, 1,
                                                k, 0, 1));
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
  out.n_class_ids = references.n_class_ids();
  out.candidates.resize(m);
  out.nearest.resize(m);
  for (std::size_t s = slice_index; s < references.shard_count(); s += slice_count)
    out.n_rows_scanned += references.shard_view(s).rows;
  if (m == 0 || n == 0) return out;
  if (queries.cols() != references.dim())
    throw std::invalid_argument("KnnClassifier::scan_slice: query width mismatch");
  // k is bounded by the *whole* store's row count, exactly as in rank_batch:
  // the slice is a partition of one store, not a smaller store.
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(std::max(0, k_)), n);

  detail::for_each_tile<true>(
      references, queries.data(), m, k, slice_index, slice_count,
      [&](std::size_t t0, std::size_t rows, detail::TileScan& sc) {
        for (std::size_t q = 0; q < rows; ++q) {
          detail::take<true>(sc, q, out, t0 + q);
          std::sort_heap(out.candidates[t0 + q].begin(), out.candidates[t0 + q].end());
          std::sort(out.nearest[t0 + q].begin(), out.nearest[t0 + q].end());
        }
      });
  return out;
}

std::vector<std::vector<RankedLabel>> merge_slice_scans(std::span<const int> labels_by_id,
                                                        int k, std::size_t n_total,
                                                        const std::vector<SliceScan>& slices,
                                                        std::size_t depth) {
  const std::size_t n_ids = labels_by_id.size();
  const std::size_t m = slices.empty() ? 0 : slices.front().candidates.size();
  for (const SliceScan& slice : slices) {
    if (slice.n_class_ids != n_ids)
      throw std::invalid_argument("merge_slice_scans: class-id space mismatch");
    if (slice.candidates.size() != m || slice.nearest.size() != m)
      throw std::invalid_argument("merge_slice_scans: query count mismatch");
  }
  std::vector<std::vector<RankedLabel>> rankings(m);
  if (n_total == 0) return rankings;
  const std::size_t kk =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(0, k)), n_total);
  const ClassOrder order(n_ids, [&](std::size_t id) { return labels_by_id[id]; });
  // Each query's slices fold as a split tile's shard groups do, then finalize.
  std::vector<Candidate> kbest;
  std::vector<double> best(n_ids, kFar);
  std::vector<std::uint32_t> touched(n_ids);
  std::size_t n_touched = 0;
  for (std::size_t q = 0; q < m; ++q) {
    kbest.clear();
    for (std::size_t t = 0; t < n_touched; ++t) best[touched[t]] = kFar;
    n_touched = 0;
    for (const SliceScan& slice : slices) {
      for (const Candidate& c : slice.candidates[q])
        WF_CHECK(detail::class_of(c) < n_ids, "merge_slice_scans: candidate class id out of range");
      for (const ClassNearest& entry : slice.nearest[q])
        WF_CHECK(entry.first < n_ids, "merge_slice_scans: nearest class id out of range");
    }
    detail::fold_parts(slices, q, kk, kbest, best.data(), touched.data(), n_touched);
    finalize(kbest, best.data(), touched.data(), n_touched, order, depth, rankings[q]);
  }
  return rankings;
}

}  // namespace wf::core
