// Reuse of the scan's thread-local scratch: every pool thread keeps its
// per-class nearest distances, touched-class lists and vote counts between
// calls and resets them lazily at the next tile. Calls that alternate
// between two stores of different class-id counts and k — rank_batch,
// scan_slice (plus merge_slice_scans) and kth_distances, on the same pool
// threads — must each return exactly what the same call returns on fresh
// scratch. The fresh-scratch answers are computed one query at a time, each
// on a new thread (a one-row call runs inline on its caller), so they also
// pin that a query's answer does not depend on the tile it shares.
//
// The cases also cover the visitor's local heap bound and its branch-free
// touched list: k = 0 (nothing is ever offered), k above every query's
// scanned row count (the heap never fills), exact duplicate rows whose
// equal distances sit at the heap top (a row with dist == bound must still
// be offered — checked against a brute-force ranking too, since the fresh
// answers share the visitor), and a store with more class ids than any
// earlier tile touched, so the scratch grows mid-sequence and every class
// is touched (the append's spare slot is used on every later row).
//
// The split oracle: a batch of fewer query tiles than pool threads is
// split into (tile, shard group) units and folded back (core/scan_tiles.hpp).
// For m = 1, 2, 31 and 33 queries, every answer — rank_batch at every depth,
// kth_distances, scan_slice and merge_slice_scans — must equal, bit for
// bit, the same queries' rows of a batch padded to pool size x kQueryTile
// rows, which takes the unsplit path. The stores cover 1, 2, 4 and 7
// shards, k = 0, 1, 40 and k above the row count, an IVF index (a
// MappedIndex) at P < C and P = C, a NaN reference row and a NaN query.
// Pruned stores are never split: their oracle runs pin that, and that a
// two-query rank_batch adds 2 to index.probes_total.
// Every scan_slice there must be in canonical form (candidates ascending,
// nearest by class id), so split and unsplit scans compare equal.
//
// The finalize oracle: test::reference_rankings rebuilds each total
// ranking from a canonical one-slice scan with std::sort. rank_batch and
// merge_slice_scans must equal it bit for bit, at every depth, on an
// exhaustive store at S = 1 and 4, an IVF index at P < C and a store
// after remove_class (labels no longer ascend with ids). Hand-built scans
// fed to merge_slice_scans add exact distance ties across classes whose
// labels run opposite to their ids, -0.0 beside +0.0, negative, subnormal
// and just-below-kFar distances, 63 and 64 touched classes (either side of
// the cutoff below which finalize sorts by comparison), and 255, 256, 257
// and 65,537 classes (1, 2 and 3 label-rank bytes of its radix sort).
//
// merge_slice_scans' input checks: a class-id space mismatch, a query
// count that disagrees across slices or within one, and a candidate or
// nearest class id outside the space must each throw.
//
// ctest runs this binary three times: with the default pool, with
// WF_THREADS=1, where every tile runs on the calling thread, and with
// WF_THREADS=4, so the split path runs even on a two-core runner.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/knn.hpp"
#include "core/openworld.hpp"
#include "core/scan_tiles.hpp"
#include "core/sharded_reference_set.hpp"
#include "index/ivf.hpp"
#include "index/store.hpp"
#include "nn/matrix.hpp"
#include "obs/metrics.hpp"
#include "test_common.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace wf;

constexpr std::size_t kDim = 12;
constexpr std::size_t kSlices = 2;

std::vector<float> random_point(util::Rng& rng) {
  std::vector<float> v(kDim);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// `n_classes` gaussian classes of `per_class` rows; labels are scrambled so
// that label order differs from class-id (first appearance) order.
void add_classes(core::ShardedReferenceSet& store, util::Rng& rng, int n_classes,
                 int per_class) {
  for (int c = 0; c < n_classes; ++c) {
    const std::vector<float> centre = random_point(rng);
    for (int s = 0; s < per_class; ++s) {
      std::vector<float> row = centre;
      for (float& x : row) x += static_cast<float>(rng.normal(0.0, 0.3));
      store.add(row, 5000 - 37 * c % 1009);
    }
  }
}

core::ShardedReferenceSet make_store(util::Rng& rng, int n_classes, int per_class,
                                     std::size_t shards) {
  core::ShardedReferenceSet store(kDim, shards);
  add_classes(store, rng, n_classes, per_class);
  return store;
}

// `points` random points, each added `copies` times with the copies
// `points` ids apart and labelled 7 - copy, over `shards` shards. Shard s
// holds the ids ≡ s (mod shards), so the scan meets many copies in an
// order other than their id order: a later, smaller-id copy at the heap
// top's distance must replace the top.
core::ShardedReferenceSet make_duplicates(util::Rng& rng, int points, int copies,
                                          std::size_t shards,
                                          std::vector<test::LabeledRow>& rows) {
  std::vector<std::vector<float>> unique;
  for (int p = 0; p < points; ++p) unique.push_back(random_point(rng));
  core::ShardedReferenceSet store(kDim, shards);
  for (int c = 0; c < copies; ++c)
    for (const std::vector<float>& point : unique) {
      store.add(point, 7 - c);
      rows.push_back({point, 7 - c});
    }
  return store;
}

void on_fresh_thread(const std::function<void()>& fn) {
  std::thread thread(fn);
  thread.join();
}

nn::Matrix one_row(const nn::Matrix& queries, std::size_t q) {
  nn::Matrix row(1, queries.cols());
  row.set_row(0, queries.row_span(q));
  return row;
}

std::vector<int> labels_by_id(const core::ReferenceStore& store) {
  std::vector<int> labels(store.n_class_ids());
  for (std::size_t id = 0; id < labels.size(); ++id) labels[id] = store.label_of_id(id);
  return labels;
}

// scan_slice's canonical form: candidates ascending, nearest by ascending
// class id, every nearest distance below kFar.
bool canonical(const core::SliceScan& scan) {
  for (const std::vector<core::Candidate>& candidates : scan.candidates)
    if (!std::is_sorted(candidates.begin(), candidates.end())) return false;
  for (const std::vector<core::ClassNearest>& nearest : scan.nearest)
    for (std::size_t i = 0; i < nearest.size(); ++i)
      if (nearest[i].first >= scan.n_class_ids || !(nearest[i].second < core::kFar) ||
          (i > 0 && nearest[i - 1].first >= nearest[i].first))
        return false;
  return true;
}

// One store under test with its classifier, detector and the answers of
// every call on fresh scratch.
struct Case {
  const core::ReferenceStore* store;
  core::KnnClassifier knn;
  core::OpenWorldDetector detector;
  std::vector<std::vector<core::RankedLabel>> rankings;
  std::vector<core::SliceScan> slices;  // one per slice, queries concatenated
  std::vector<double> kth;

  Case(const core::ReferenceStore& s, int k, int neighbour)
      : store(&s), knn(k), detector(core::OpenWorldConfig{neighbour, 0.95}) {}

  void compute_fresh(const nn::Matrix& queries) {
    const std::size_t m = queries.rows();
    rankings.resize(m);
    kth.resize(m);
    slices.assign(kSlices, core::SliceScan{});
    for (core::SliceScan& scan : slices) scan.n_class_ids = store->n_class_ids();
    for (std::size_t q = 0; q < m; ++q) {
      const nn::Matrix row = one_row(queries, q);
      on_fresh_thread([&] { rankings[q] = knn.rank_batch(*store, row).front(); });
      on_fresh_thread([&] { kth[q] = detector.kth_distances(*store, row).front(); });
      for (std::size_t slice = 0; slice < kSlices; ++slice) {
        core::SliceScan one;
        on_fresh_thread([&] { one = knn.scan_slice(*store, row, slice, kSlices); });
        core::SliceScan& scan = slices[slice];
        scan.n_rows_scanned = one.n_rows_scanned;
        scan.candidates.push_back(one.candidates.front());
        scan.nearest.push_back(one.nearest.front());
      }
    }
  }

  // Call `op` (0 = rank_batch, 1 = scan_slice + merge, 2 = kth_distances)
  // on the warm pool and compare with the fresh-scratch answer.
  void check(int op, const nn::Matrix& queries) const {
    if (op == 0) {
      CHECK(test::same_bits(knn.rank_batch(*store, queries), rankings));
    } else if (op == 1) {
      std::vector<core::SliceScan> warm;
      for (std::size_t slice = 0; slice < kSlices; ++slice) {
        warm.push_back(knn.scan_slice(*store, queries, slice, kSlices));
        CHECK(test::same_bits(warm.back(), slices[slice]));
      }
      const std::vector<int> labels = labels_by_id(*store);
      CHECK(test::same_bits(core::merge_slice_scans(labels, knn.k(), store->size(), warm),
                          rankings));
    } else {
      CHECK(detector.kth_distances(*store, queries) == kth);
    }
  }
};

nn::Matrix first_rows(const nn::Matrix& queries, std::size_t n) {
  nn::Matrix rows(n, queries.cols());
  for (std::size_t q = 0; q < n; ++q) rows.set_row(q, queries.row_span(q));
  return rows;
}

template <typename T>
std::vector<T> prefix(const std::vector<T>& all, std::size_t n) {
  return std::vector<T>(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n));
}

// The first n queries of a slice scan.
core::SliceScan prefix(const core::SliceScan& scan, std::size_t n) {
  core::SliceScan out = scan;
  out.candidates.resize(n);
  out.nearest.resize(n);
  return out;
}

// The split oracle over one store at one k: `padded` holds pool size x
// kQueryTile rows (at least two tiles), so every call on it is unsplit.
void check_split(const core::ReferenceStore& store, int k, const nn::Matrix& padded) {
  const core::KnnClassifier knn(k);
  const core::OpenWorldDetector detector(core::OpenWorldConfig{std::max(1, k), 0.95});
  const std::vector<int> labels = labels_by_id(store);
  CHECK(core::detail::scan_groups(store, padded.rows(), 0, 1) == 1);
  const auto ranked = knn.rank_batch(store, padded);
  const auto fronts = knn.rank_batch(store, padded, 1);
  const std::vector<double> kth = detector.kth_distances(store, padded);
  std::vector<core::SliceScan> padded_slices;
  for (std::size_t slice = 0; slice < kSlices; ++slice)
    padded_slices.push_back(knn.scan_slice(store, padded, slice, kSlices));
  for (const std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{31}, std::size_t{33}}) {
    const nn::Matrix queries = first_rows(padded, m);
    const auto total = knn.rank_batch(store, queries);
    CHECK(test::same_bits(total, prefix(ranked, m)));
    CHECK(test::same_bits(knn.rank_batch(store, queries, 1), prefix(fronts, m)));
    test::check_depth_prefixes(knn, store, queries);
    CHECK(test::same_bits(detector.kth_distances(store, queries), prefix(kth, m)));
    std::vector<core::SliceScan> slices;
    for (std::size_t slice = 0; slice < kSlices; ++slice) {
      slices.push_back(knn.scan_slice(store, queries, slice, kSlices));
      CHECK(canonical(slices.back()));
      CHECK(test::same_bits(slices.back(), prefix(padded_slices[slice], m)));
    }
    CHECK(test::same_bits(core::merge_slice_scans(labels, k, store.size(), slices), total));
    test::check_merge_depth_prefixes(labels, k, store.size(), slices);
  }
}

template <typename Error, typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const Error&) {
    return true;
  } catch (...) {
    return false;
  }
  return false;
}

// merge_slice_scans rejects slices that disagree with each other or with
// the class-id space: each tampered copy of two good slice scans must throw.
void merge_rejections(const core::ReferenceStore& store, const nn::Matrix& queries) {
  const core::KnnClassifier knn(3);
  const std::vector<int> labels = labels_by_id(store);
  std::vector<core::SliceScan> good;
  for (std::size_t slice = 0; slice < kSlices; ++slice)
    good.push_back(knn.scan_slice(store, queries, slice, kSlices));
  CHECK(!good[0].candidates[0].empty() && !good[1].nearest[0].empty());
  const auto merge = [&](const std::vector<core::SliceScan>& slices) {
    return core::merge_slice_scans(labels, knn.k(), store.size(), slices);
  };
  CHECK(test::same_bits(merge(good), knn.rank_batch(store, queries)));
  const auto rejected = [&](auto&& tamper) {
    std::vector<core::SliceScan> slices = good;
    tamper(slices);
    return [&merge, slices] { (void)merge(slices); };
  };
  // A slice from a store with another class-id space.
  CHECK(throws<std::invalid_argument>(
      rejected([](std::vector<core::SliceScan>& s) { ++s[1].n_class_ids; })));
  // One slice answered fewer queries than the other.
  CHECK(throws<std::invalid_argument>(rejected([](std::vector<core::SliceScan>& s) {
    s[1].candidates.pop_back();
    s[1].nearest.pop_back();
  })));
  // Within one slice, candidates and nearest lists disagree in count.
  CHECK(throws<std::invalid_argument>(
      rejected([](std::vector<core::SliceScan>& s) { s[0].nearest.pop_back(); })));
  // A candidate naming a class id outside the space.
  CHECK(throws<util::CheckError>(rejected([&](std::vector<core::SliceScan>& s) {
    s[0].candidates[0][0].second |= labels.size();
  })));
  // A nearest entry naming a class id outside the space.
  CHECK(throws<util::CheckError>(rejected([&](std::vector<core::SliceScan>& s) {
    s[1].nearest[0].back().first = static_cast<std::uint32_t>(labels.size());
  })));
}

void split_oracle(util::Rng& rng) {
  const std::size_t threads = util::global_pool().size();
  // The two probe shapes of the adaptive pass (2 queries, 4 shards, 4
  // threads): 20,000 rows split four ways, 5,000 rows stay whole.
  CHECK(core::detail::shard_groups(1, 4, 4, 2 * 20000) == 4);
  CHECK(core::detail::shard_groups(1, 4, 4, 2 * 5000) == 1);
  CHECK(core::detail::shard_groups(4, 4, 4, 32 * 20000) == 1);

  nn::Matrix padded(std::max<std::size_t>(threads, 2) * core::detail::kQueryTile, kDim);
  for (std::size_t q = 0; q < padded.rows(); ++q) padded.set_row(q, random_point(rng));
  std::vector<float> nan_row(kDim, 0.0f);
  nan_row[3] = std::nanf("");
  padded.set_row(1, nan_row);  // every m > 1 batch holds a NaN query

  // 24,000 rows: one or two queries are enough pairs for several groups.
  const core::ShardedReferenceSet one = make_store(rng, 600, 40, 1);
  const core::ShardedReferenceSet two = make_store(rng, 600, 40, 2);
  const core::ShardedReferenceSet four = make_store(rng, 600, 40, 4);
  // 2,100 rows: only the 31- and 33-query batches split.
  const core::ShardedReferenceSet seven = make_store(rng, 300, 7, 7);
  const std::size_t groups = core::detail::scan_groups(four, 2, 0, 1);
  CHECK(groups == std::min<std::size_t>(threads, 4));
  CHECK(core::detail::scan_groups(one, 33, 0, 1) == 1);  // one shard: nothing to split
  check_split(one, 1, padded);
  check_split(two, 40, padded);
  check_split(four, 0, padded);
  check_split(seven, static_cast<int>(seven.size()) + 5, padded);

  index::IvfConfig config;
  config.clusters = 8;
  config.probes = 3;
  const test::TempIndex pruned(two, config, "wf_test_scan_split.wfx");
  check_split(*pruned.store, 40, padded);
  const std::unique_ptr<index::MappedIndex> full = pruned.reopen(config.clusters);
  check_split(*full, 1, padded);
  // A pruned store is never split, so each query is probed (and counted)
  // once, at every depth.
  const obs::Counter& probes = obs::Registry::global().counter("index.probes_total");
  nn::Matrix two_queries(2, kDim);  // finite: no depth-1 per-class rescan
  two_queries.set_row(0, padded.row_span(2));
  two_queries.set_row(1, padded.row_span(3));
  for (const index::MappedIndex* store : {pruned.store.get(), full.get()}) {
    CHECK(core::detail::scan_groups(*store, 2, 0, 1) == 1);
    for (const std::size_t depth : {std::size_t{1}, core::kTotalRanking}) {
      const std::uint64_t before = probes.value();
      (void)core::KnnClassifier(40).rank_batch(*store, two_queries, depth);
      CHECK(probes.value() - before == 2);
    }
  }

  // A NaN row third, so first in shard 2: the unsplit heap is full before
  // shard 2 is reached, but the group scanning shard 2 takes the NaN while
  // it fills.
  core::ShardedReferenceSet with_nan(kDim, 4);
  add_classes(with_nan, rng, 1, 2);
  with_nan.add(nan_row, 4242);
  add_classes(with_nan, rng, 600, 40);
  check_split(with_nan, 40, padded);
  std::cout << "split oracle: pool threads " << threads << ", two queries in " << groups
            << " shard groups\n";
}

// The finalize oracle over one store: rank_batch and merge_slice_scans
// (one slice and kSlices slices) must equal test::reference_rankings of
// the store's canonical one-slice scan bit for bit, and their depth
// prefixes the total rankings.
void check_reference(const core::ReferenceStore& store, int k, const nn::Matrix& queries) {
  const core::KnnClassifier knn(k);
  const std::vector<int> labels = labels_by_id(store);
  const core::SliceScan whole = knn.scan_slice(store, queries, 0, 1);
  const test::Rankings want = test::reference_rankings(labels, whole);
  CHECK(test::same_bits(knn.rank_batch(store, queries), want));
  CHECK(test::same_bits(core::merge_slice_scans(labels, k, store.size(), {whole}), want));
  std::vector<core::SliceScan> slices;
  for (std::size_t slice = 0; slice < kSlices; ++slice)
    slices.push_back(knn.scan_slice(store, queries, slice, kSlices));
  CHECK(test::same_bits(core::merge_slice_scans(labels, k, store.size(), slices), want));
  test::check_depth_prefixes(knn, store, queries);
  test::check_merge_depth_prefixes(labels, k, store.size(), slices);
}

// Hand-built scans of `labels.size()` classes for merge_slice_scans: the
// one-slice scan and its split into two slices (alternate candidates and
// nearest entries) must both equal test::reference_rankings of the scan,
// at every depth. The candidates are all kept (k = their count).
void check_hand_built(const std::vector<int>& labels, const core::SliceScan& scan) {
  std::size_t k = 0;
  for (const std::vector<core::Candidate>& candidates : scan.candidates)
    k = std::max(k, candidates.size());
  const int kk = static_cast<int>(k);
  const std::size_t n_total = std::size_t{1} << 30;
  const test::Rankings want = test::reference_rankings(labels, scan);
  CHECK(test::same_bits(core::merge_slice_scans(labels, kk, n_total, {scan}), want));
  std::vector<core::SliceScan> halves(2);
  for (std::size_t h = 0; h < 2; ++h) {
    halves[h].n_class_ids = scan.n_class_ids;
    halves[h].candidates.resize(scan.candidates.size());
    halves[h].nearest.resize(scan.nearest.size());
  }
  for (std::size_t q = 0; q < scan.candidates.size(); ++q) {
    for (std::size_t i = 0; i < scan.candidates[q].size(); ++i)
      halves[i % 2].candidates[q].push_back(scan.candidates[q][i]);
    for (std::size_t i = 0; i < scan.nearest[q].size(); ++i)
      halves[i % 2].nearest[q].push_back(scan.nearest[q][i]);
  }
  CHECK(test::same_bits(core::merge_slice_scans(labels, kk, n_total, halves), want));
  test::check_merge_depth_prefixes(labels, kk, n_total, halves);
}

// One query's scan: `voted` (class id, votes) pairs become candidates, and
// `nearest` (class id, distance) pairs the nearest list, sorted by id.
core::SliceScan hand_scan(std::size_t n_ids,
                          const std::vector<std::pair<std::uint32_t, int>>& voted,
                          std::vector<core::ClassNearest> nearest) {
  core::SliceScan scan;
  scan.n_class_ids = n_ids;
  scan.candidates.resize(1);
  std::uint64_t gid = 0;
  for (const auto& [id, votes] : voted)
    for (int v = 0; v < votes; ++v, ++gid)
      scan.candidates[0].emplace_back(0.5 * static_cast<double>(gid),
                                      core::detail::pack_key(gid, static_cast<int>(id)));
  std::sort(nearest.begin(), nearest.end());
  scan.nearest.push_back(std::move(nearest));
  return scan;
}

// Class labels by id: a shuffled permutation of 10 * (0..n_ids), so label
// order is not id order.
std::vector<int> shuffled_labels(util::Rng& rng, std::size_t n_ids) {
  std::vector<int> labels(n_ids);
  for (std::size_t id = 0; id < n_ids; ++id) labels[id] = 10 * static_cast<int>(id);
  for (std::size_t i = n_ids; i > 1; --i) std::swap(labels[i - 1], labels[rng.index(i)]);
  return labels;
}

void finalize_oracle(util::Rng& rng) {
  nn::Matrix queries(40, kDim);
  for (std::size_t q = 0; q < queries.rows(); ++q) queries.set_row(q, random_point(rng));
  std::vector<float> nan_row(kDim, 0.0f);
  nan_row[5] = std::nanf("");
  queries.set_row(7, nan_row);  // its voted classes keep distance kFar

  const core::ShardedReferenceSet one = make_store(rng, 120, 6, 1);
  const core::ShardedReferenceSet four = make_store(rng, 120, 6, 4);
  check_reference(one, 5, queries);
  check_reference(four, 40, queries);
  index::IvfConfig config;
  config.clusters = 8;
  config.probes = 3;
  const test::TempIndex pruned(four, config, "wf_test_scan_reference.wfx");
  check_reference(*pruned.store, 40, queries);
  check_reference(*pruned.store, 7, queries);
  // Labels ascend with ids until a removal moves the last class id into
  // the freed slot.
  core::ShardedReferenceSet removed(kDim, 2);
  for (int c = 0; c < 90; ++c) {
    const std::vector<float> centre = random_point(rng);
    for (int r = 0; r < 4; ++r) removed.add(centre, c);
  }
  removed.remove_class(3);
  const std::vector<int> after = labels_by_id(removed);
  CHECK(!std::is_sorted(after.begin(), after.end()));
  check_reference(removed, 9, queries);

  // Exact ties: voted and unvoted classes at equal distances, labels
  // running opposite to ids (the fold touches them in id order).
  const std::vector<int> opposite = {60, 50, 40, 30, 20, 10, 0};
  check_hand_built(opposite, hand_scan(7, {{4, 2}, {1, 2}, {6, 1}, {2, 1}},
                                       {{4, 1.0}, {1, 1.0}, {6, 2.0}, {2, 2.0}, {5, 3.0},
                                        {0, 3.0}, {3, 3.0}}));
  // -0.0 beside +0.0 (equal, so ordered by label: the +0.0 class has the
  // larger id but the smaller label), negative distances as a peer's PART
  // can carry them, subnormals, and distances just below kFar.
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double below_far = std::nextafter(core::kFar, 0.0);
  check_hand_built(opposite,
                   hand_scan(7, {},
                             {{0, -0.0}, {6, 0.0}, {1, -2.5},
                              {5, -std::numeric_limits<double>::infinity()}, {2, denorm},
                              {3, 3 * denorm}, {4, below_far}}));
  check_hand_built(opposite,
                   hand_scan(7, {{3, 1}},
                             {{0, 0.0}, {6, -0.0}, {1, -denorm}, {5, -0.0}, {2, denorm},
                              {4, below_far}, {3, std::nextafter(below_far, 0.0)}}));
  // Distances drawn from few values, so many tie, some negative, zero or
  // subnormal. 63 and 64 classes, every one touched and none voted, sit
  // either side of finalize's comparison-sort cutoff; at 255, 256, 257 and
  // 65,537 classes, most touched, the radix sort runs over 1, 2 and 3
  // label-rank bytes.
  const double values[] = {-1.5, -0.0, 0.0, denorm, 0.25, 0.25 + 1e-12, 1.0, 7.0, below_far};
  for (const std::size_t n_ids : {std::size_t{63}, std::size_t{64}}) {
    std::vector<core::ClassNearest> nearest;
    for (std::uint32_t id = 0; id < n_ids; ++id)
      nearest.emplace_back(id, values[rng.index(std::size(values))]);
    check_hand_built(shuffled_labels(rng, n_ids), hand_scan(n_ids, {}, std::move(nearest)));
  }
  for (const std::size_t n_ids : {std::size_t{255}, std::size_t{256}, std::size_t{257},
                                  std::size_t{65537}}) {
    const std::vector<int> labels = shuffled_labels(rng, n_ids);
    std::vector<std::pair<std::uint32_t, int>> voted;
    for (int v = 0; v < 6; ++v)
      voted.emplace_back(static_cast<std::uint32_t>(rng.index(n_ids)), 1 + v % 3);
    std::vector<core::ClassNearest> nearest;
    for (std::uint32_t id = 0; id < n_ids; ++id)
      if (rng.index(10) != 0) nearest.emplace_back(id, values[rng.index(std::size(values))]);
    check_hand_built(labels, hand_scan(n_ids, voted, std::move(nearest)));
  }
}

}  // namespace

int main() {
  util::Rng rng(8080);
  // Many classes, exhaustive, small k.
  const core::ShardedReferenceSet wide = make_store(rng, 60, 4, 3);
  // Few classes, IVF-pruned (P < C), larger k.
  const core::ShardedReferenceSet narrow_base = make_store(rng, 7, 20, 2);
  index::IvfConfig config;
  config.clusters = 5;
  config.probes = 2;
  const test::TempIndex narrow_index(narrow_base, config, "wf_test_scan_narrow.wfx");
  const index::MappedIndex& narrow = *narrow_index.store;
  CHECK(wide.n_class_ids() != narrow.n_class_ids());
  // Four exact copies of 30 points over 7 shards.
  std::vector<test::LabeledRow> duplicate_rows;
  const core::ShardedReferenceSet duplicates = make_duplicates(rng, 30, 4, 7, duplicate_rows);
  // More class ids than any store above.
  const core::ShardedReferenceSet widest = make_store(rng, 150, 2, 2);
  CHECK(widest.n_class_ids() > wide.n_class_ids());

  nn::Matrix queries(77, kDim);  // two full tiles and a partial one
  for (std::size_t q = 0; q < queries.rows(); ++q) queries.set_row(q, random_point(rng));

  // The narrow store first, so the wide one later grows the scratch and the
  // narrow one then runs inside a wider stride; the widest store, last in
  // each round, grows it once more.
  Case cases[] = {Case(narrow, 11, 5),
                  Case(wide, 3, 2),
                  Case(wide, 0, 1),            // k = 0: no candidate is kept
                  Case(narrow, 1000, 1000),    // k capped at every row: never fills
                  Case(duplicates, 2, 3),      // ties at the heap top
                  Case(widest, 5, 4)};
  constexpr int kCases = sizeof(cases) / sizeof(cases[0]);
  for (Case& c : cases) c.compute_fresh(queries);

  // A pruned probe covers fewer rows than the capped k, so its heap never
  // fills: every candidate of the k-above-rows case is a scanned row.
  for (const core::SliceScan& slice : cases[3].slices)
    for (const std::vector<core::Candidate>& candidates : slice.candidates)
      CHECK(candidates.size() < narrow.size());
  for (const core::SliceScan& slice : cases[2].slices)
    for (const std::vector<core::Candidate>& candidates : slice.candidates)
      CHECK(candidates.empty());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const std::vector<core::RankedLabel> oracle =
        test::brute_force_rank(duplicate_rows, queries.row_span(q), 2);
    const std::vector<core::RankedLabel>& ranked = cases[4].rankings[q];
    CHECK(ranked.size() == oracle.size());
    for (std::size_t i = 0; i < std::min(ranked.size(), oracle.size()); ++i) {
      CHECK(ranked[i].label == oracle[i].label);
      CHECK(ranked[i].votes == oracle[i].votes);
    }
  }

  // Every (store, op) pair twice, the case changing on every call.
  for (int call = 0; call < 6 * kCases; ++call)
    cases[call % kCases].check((call / kCases + call) % 3, queries);

  merge_rejections(wide, first_rows(queries, 3));
  split_oracle(rng);
  finalize_oracle(rng);

  std::cout << "pool threads: " << util::global_pool().size() << "\n";
  return TEST_MAIN_RESULT();
}
