#pragma once

// Tiny assertion harness for the ctest suite: each test file is a
// standalone binary; a failed CHECK prints the location and the binary
// exits nonzero.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/attacker.hpp"
#include "core/knn.hpp"
#include "core/openworld.hpp"
#include "core/reference_store.hpp"
#include "core/row_tables.hpp"
#include "core/sharded_reference_set.hpp"
#include "index/ivf.hpp"
#include "index/store.hpp"
#include "io/binary.hpp"
#include "nn/matrix.hpp"
#include "nn/simd.hpp"

namespace wf::test {
inline int failures = 0;

// True when fn() throws io::IoError (and nothing else).
template <typename Fn>
bool throws_io_error(Fn&& fn) {
  try {
    fn();
  } catch (const io::IoError&) {
    return true;
  } catch (...) {
    return false;
  }
  return false;
}

// Bitwise equality: NaN distances must match too.
template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// Bitwise equality of two slice scans. ClassNearest has padding bytes
// between its fields, so its entries compare field by field.
inline bool same_bits(const core::SliceScan& a, const core::SliceScan& b) {
  if (a.n_class_ids != b.n_class_ids || a.n_rows_scanned != b.n_rows_scanned ||
      a.candidates.size() != b.candidates.size() || a.nearest.size() != b.nearest.size())
    return false;
  for (std::size_t q = 0; q < a.candidates.size(); ++q)
    if (!same_bits(a.candidates[q], b.candidates[q])) return false;
  for (std::size_t q = 0; q < a.nearest.size(); ++q) {
    if (a.nearest[q].size() != b.nearest[q].size()) return false;
    for (std::size_t i = 0; i < a.nearest[q].size(); ++i)
      if (a.nearest[q][i].first != b.nearest[q][i].first ||
          std::memcmp(&a.nearest[q][i].second, &b.nearest[q][i].second, sizeof(double)) != 0)
        return false;
  }
  return true;
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

inline void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// One reference row as the brute-force oracles below see it: a plain list
// in insertion order, independent of any ReferenceStore layout.
struct LabeledRow {
  std::vector<float> embedding;
  int label = 0;
};

// The ranking order: votes descending, then distance, then label.
inline bool ranked_before(const core::RankedLabel& a, const core::RankedLabel& b) {
  if (a.votes != b.votes) return a.votes > b.votes;
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.label < b.label;
}

// Straightforward reimplementation of the ranking contract: linear scan
// with double-precision distances, map-based but same vote/tie rules
// (ties on distance go to the earlier-inserted row).
inline std::vector<core::RankedLabel> brute_force_rank(const std::vector<LabeledRow>& refs,
                                                       std::span<const float> query, int k_cfg) {
  const std::size_t n = refs.size();
  std::vector<std::pair<double, std::size_t>> distances;
  distances.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    distances.emplace_back(nn::squared_distance(refs[i].embedding, query), i);
  std::sort(distances.begin(), distances.end());
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(std::max(0, k_cfg)), n);
  struct Stats {
    int votes = 0;
    double best = 1e300;
  };
  std::map<int, Stats> stats;
  for (std::size_t i = 0; i < n; ++i) {
    Stats& s = stats[refs[distances[i].second].label];
    if (i < k) ++s.votes;
    s.best = std::min(s.best, distances[i].first);
  }
  std::vector<core::RankedLabel> ranking;
  for (const auto& [label, s] : stats) ranking.push_back({label, s.votes, s.best});
  std::sort(ranking.begin(), ranking.end(), ranked_before);
  return ranking;
}

// The open-world statistic by linear scan: the distance to the
// `neighbour`-th nearest row (clamped to the farthest row when there are
// fewer), 1e300 for an empty set.
inline double brute_force_kth_distance(const std::vector<LabeledRow>& refs,
                                       std::span<const float> query, int neighbour) {
  if (refs.empty()) return 1e300;
  std::vector<double> distances;
  distances.reserve(refs.size());
  for (const LabeledRow& row : refs)
    distances.push_back(nn::squared_distance(row.embedding, query));
  std::sort(distances.begin(), distances.end());
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(std::max(1, neighbour)),
                                              distances.size());
  return std::sqrt(distances[k - 1]);
}

}  // namespace wf::test

#define CHECK(cond)                                                              \
  do {                                                                           \
    if (!(cond)) {                                                               \
      std::cerr << "CHECK failed at " << __FILE__ << ":" << __LINE__ << ": "     \
                << #cond << "\n";                                                \
      ++wf::test::failures;                                                      \
    }                                                                            \
  } while (0)

#define CHECK_NEAR(a, b, tol)                                                    \
  do {                                                                           \
    const double _va = (a), _vb = (b);                                           \
    if (!(std::fabs(_va - _vb) <= (tol))) {                                      \
      std::cerr << "CHECK_NEAR failed at " << __FILE__ << ":" << __LINE__        \
                << ": " << #a << " = " << _va << " vs " << #b << " = " << _vb    \
                << " (tol " << (tol) << ")\n";                                   \
      ++wf::test::failures;                                                      \
    }                                                                            \
  } while (0)

#define TEST_MAIN_RESULT()                                                       \
  (wf::test::failures == 0                                                       \
       ? (std::cout << "OK\n", 0)                                                \
       : (std::cerr << wf::test::failures << " check(s) failed\n", 1))

namespace wf::test {

using Rankings = std::vector<std::vector<core::RankedLabel>>;

// Bitwise equality of two sets of rankings (RankedLabel has no padding).
inline bool same_bits(const Rankings& a, const Rankings& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q)
    if (!same_bits(a[q], b[q])) return false;
  return true;
}

// Attacker::fingerprint is the one-row fingerprint_batch: every trace's own
// ranking equals its row of the whole batch bit for bit.
inline void check_fingerprint_is_batch_row(const core::Attacker& attacker,
                                           const data::Dataset& traces) {
  const Rankings batch = attacker.fingerprint_batch(traces);
  CHECK(batch.size() == traces.size());
  for (std::size_t i = 0; i < traces.size() && i < batch.size(); ++i)
    CHECK(same_bits(attacker.fingerprint(traces[i].features), batch[i]));
}

// The finalize oracle: every query's total ranking rebuilt from `scan`, a
// scan of a whole store (one slice, or a hand-built SliceScan). Each class
// its candidates voted for or its nearest list reached is weighed by its
// candidate count and its nearest distance (kFar when unreached), and
// std::sort-ed by ranked_before; every other class follows in label order
// with no votes and distance kFar.
inline Rankings reference_rankings(std::span<const int> labels_by_id,
                                   const core::SliceScan& scan) {
  const std::size_t n_ids = labels_by_id.size();
  constexpr std::uint64_t kClassMask = (std::uint64_t{1} << core::kCandidateClassBits) - 1;
  Rankings rankings(scan.candidates.size());
  for (std::size_t q = 0; q < rankings.size(); ++q) {
    std::vector<int> votes(n_ids, 0);
    std::vector<double> best(n_ids, core::kFar);
    for (const core::Candidate& c : scan.candidates[q]) ++votes[c.second & kClassMask];
    for (const auto& [id, d] : scan.nearest[q]) best[id] = d;
    std::vector<core::RankedLabel> tail;
    for (std::size_t id = 0; id < n_ids; ++id)
      (votes[id] > 0 || best[id] < core::kFar ? rankings[q] : tail)
          .push_back({labels_by_id[id], votes[id], best[id]});
    std::sort(rankings[q].begin(), rankings[q].end(), ranked_before);
    std::sort(tail.begin(), tail.end(), [](const core::RankedLabel& a,
                                           const core::RankedLabel& b) {
      return a.label < b.label;
    });
    rankings[q].insert(rankings[q].end(), tail.begin(), tail.end());
  }
  return rankings;
}

// The depth contract: to depth D every query's ranking is the first
// min(D, classes) entries of its total ranking, bit for bit, for D in
// {1, 2, 10, n_ids / 2, n_ids - 1, n_ids, n_ids + 3}; the middle two stop
// inside the untouched tail of a pruned store. `ranked(D)` returns the
// rankings to depth D.
template <typename RankedTo>
void check_depth_prefixes_of(std::size_t n_ids, RankedTo&& ranked) {
  const Rankings total = ranked(core::kTotalRanking);
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{10}, n_ids / 2,
                                  n_ids - 1, n_ids, n_ids + 3}) {
    const Rankings got = ranked(depth);
    CHECK(got.size() == total.size());
    for (std::size_t q = 0; q < got.size() && q < total.size(); ++q) {
      const std::size_t want = std::min(depth, total[q].size());
      CHECK(got[q].size() == want);
      for (std::size_t i = 0; i < want && i < got[q].size(); ++i) {
        CHECK(got[q][i].label == total[q][i].label);
        CHECK(got[q][i].votes == total[q][i].votes);
        CHECK(std::memcmp(&got[q][i].distance, &total[q][i].distance, sizeof(double)) == 0);
      }
    }
  }
}

// rank_batch's depth contract — D = 1 being the read of the k-heap alone.
inline void check_depth_prefixes(const core::KnnClassifier& knn,
                                 const core::ReferenceStore& store, const nn::Matrix& queries) {
  check_depth_prefixes_of(store.n_class_ids(), [&](std::size_t depth) {
    return knn.rank_batch(store, queries, depth);
  });
}

// merge_slice_scans' depth contract over one set of slice scans.
inline void check_merge_depth_prefixes(std::span<const int> labels_by_id, int k,
                                       std::size_t n_total,
                                       const std::vector<core::SliceScan>& slices) {
  check_depth_prefixes_of(labels_by_id.size(), [&](std::size_t depth) {
    return core::merge_slice_scans(labels_by_id, k, n_total, slices, depth);
  });
}

// --- IVF index helpers -------------------------------------------------------

// A per-process temp file name: ctest runs the registrations of one binary
// (test_index, test_scan_scratch) concurrently.
inline std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / (std::to_string(::getpid()) + "_" + name))
      .string();
}

// An IVF index of `base` under `config`: built, written to temp_path(name)
// and opened there as the MappedIndex it serves as. The file and its
// journal go away with the object.
struct TempIndex {
  TempIndex(const core::ReferenceStore& base, const index::IvfConfig& config,
            const std::string& name)
      : build(base, config), path(temp_path(name)) {
    index::write_index_file(path, build);
    store = std::make_unique<index::MappedIndex>(path);
  }
  ~TempIndex() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::filesystem::remove(path + ".journal", ec);
  }
  TempIndex(const TempIndex&) = delete;
  TempIndex& operator=(const TempIndex&) = delete;

  // A fresh open of the file and its journal; `probes` overrides the
  // file's P when nonzero.
  std::unique_ptr<index::MappedIndex> reopen(std::size_t probes = 0) const {
    return std::make_unique<index::MappedIndex>(path, probes);
  }

  index::IvfReferenceStore build;  // what the file holds
  std::string path;
  std::unique_ptr<index::MappedIndex> store;
};

// The nearest-centroid rule written out: the first cluster of least margin
// norms[c] - 2 dots[c] under strict <, so a NaN margin never wins and a NaN
// margin(0) stays.
inline std::size_t plain_argmin(const std::vector<double>& norms,
                                const std::vector<float>& dots) {
  std::size_t best = 0;
  double best_margin = norms[0] - 2.0 * static_cast<double>(dots[0]);
  for (std::size_t c = 1; c < norms.size(); ++c) {
    const double m = norms[c] - 2.0 * static_cast<double>(dots[c]);
    if (m < best_margin) {
      best_margin = m;
      best = c;
    }
  }
  return best;
}

// What an index file and its journal must open to, kept without wf::index
// code: the live rows by row id, a core::ClassIdSpace driven by the same
// intern/release sequence as the journal, and the build's centroids. Under
// the written-out nearest-centroid rule (plain_argmin over scalar dot
// products, which the tiled GEMM equals bit for bit) every row of cluster c
// has c as its nearest centroid, and a probe at P < C takes the P clusters
// of least (margin, cluster).
class IndexOracle {
 public:
  explicit IndexOracle(const index::IvfReferenceStore& built)
      : dim_(built.dim()),
        centroids_(built.centroids().begin(), built.centroids().end()),
        ids_(built.id_to_label()),
        base_next_row_id_(built.next_row_id()),
        next_row_id_(built.next_row_id()) {
    for (std::size_t c = 0; c < built.clusters(); ++c) {
      norms_.push_back(nn::squared_norm(centroids_.data() + c * dim_, dim_));
      const core::RowTables& cell = built.cell(c);
      for (std::size_t i = 0; i < cell.rows(); ++i)
        rows_[cell.row_ids[i]] = {
            std::vector<float>(cell.data.begin() + static_cast<std::ptrdiff_t>(i * dim_),
                               cell.data.begin() + static_cast<std::ptrdiff_t>((i + 1) * dim_)),
            ids_.label_of(static_cast<std::size_t>(cell.class_ids[i]))};
    }
  }

  // IndexJournalWriter::add's and remove_class's effect.
  void add(std::span<const float> embedding, int label) {
    ids_.intern(label);
    rows_[next_row_id_++] = {std::vector<float>(embedding.begin(), embedding.end()), label};
  }
  void remove_class(int label) {
    const int id = ids_.find(label);
    if (id < 0) return;
    ids_.release(id);
    std::erase_if(rows_, [&](const auto& row) { return row.second.label == label; });
  }

  const core::ClassIdSpace& ids() const { return ids_; }
  std::uint64_t next_row_id() const { return next_row_id_; }
  std::size_t size() const { return rows_.size(); }
  // The live rows in row-id order.
  std::vector<LabeledRow> live() const {
    std::vector<LabeledRow> out;
    for (const auto& [row_id, row] : rows_) out.push_back(row);
    return out;
  }

  // The live rows under their own row ids: an exact scan of it is the
  // P = C answer, and a build of it (at next_row_id()) is the compacted file.
  core::ShardedReferenceSet store() const {
    core::RowTables table;
    for (const auto& [row_id, row] : rows_)
      table.append(row.embedding, nn::squared_norm(row.embedding.data(), dim_),
                   ids_.find(row.label), row_id);
    return core::ShardedReferenceSet::restore(dim_, next_row_id_, ids_.labels(), {table});
  }

  // `index` (a MappedIndex: C base clusters, then their C journal tails)
  // holds exactly the oracle's rows and id space, every row in the cluster
  // of its nearest centroid, every journal row in a tail.
  void check(const core::ReferenceStore& index) const {
    CHECK(index.dim() == dim_);
    CHECK(index.size() == rows_.size());
    CHECK(index.n_class_ids() == ids_.size());
    for (std::size_t id = 0; id < index.n_class_ids() && id < ids_.size(); ++id)
      CHECK(index.label_of_id(id) == ids_.label_of(id));
    const std::size_t clusters = norms_.size();
    CHECK(index.shard_count() == 2 * clusters);
    std::map<std::uint64_t, int> seen;
    for (std::size_t s = 0; s < index.shard_count(); ++s) {
      const core::ShardView view = index.shard_view(s);
      for (std::size_t j = 0; j < view.rows; ++j) {
        const std::uint64_t row_id = view.row_ids[j];
        const float* data = view.data + j * dim_;
        ++seen[row_id];
        const auto it = rows_.find(row_id);
        CHECK(it != rows_.end());
        if (it == rows_.end()) continue;
        CHECK(std::memcmp(data, it->second.embedding.data(), dim_ * sizeof(float)) == 0);
        const int id = view.class_ids[j];
        CHECK(id >= 0 && static_cast<std::size_t>(id) < index.n_class_ids());
        if (id >= 0 && static_cast<std::size_t>(id) < index.n_class_ids())
          CHECK(index.label_of_id(static_cast<std::size_t>(id)) == it->second.label);
        CHECK((s >= clusters) == (row_id >= base_next_row_id_));
        CHECK(nearest(data) == s % clusters);
      }
    }
    CHECK(seen.size() == rows_.size());
    for (const auto& [row_id, count] : seen) CHECK(count == 1);
  }

  // probe_shards at P = `probes` (0 = all): the P clusters of least
  // (margin, cluster) in that order (all of them in index order at P >= C),
  // then the journal tail of each that holds rows.
  void check_probes(const core::ReferenceStore& index, const nn::Matrix& queries,
                    std::size_t probes) const {
    const std::size_t clusters = norms_.size();
    std::vector<std::size_t> tail_rows(clusters, 0);
    for (const auto& [row_id, row] : rows_)
      if (row_id >= base_next_row_id_) ++tail_rows[nearest(row.embedding.data())];
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      std::vector<std::pair<double, std::size_t>> ranked;
      const std::vector<float> dots = dots_of(queries.row_span(q).data());
      for (std::size_t c = 0; c < clusters; ++c)
        ranked.emplace_back(norms_[c] - 2.0 * static_cast<double>(dots[c]), c);
      const std::size_t n = probes == 0 ? clusters : std::min(probes, clusters);
      if (n < clusters) std::sort(ranked.begin(), ranked.end());
      std::vector<std::size_t> want;
      for (std::size_t p = 0; p < n; ++p) want.push_back(ranked[p].second);
      for (std::size_t p = 0; p < n; ++p)
        if (tail_rows[ranked[p].second] > 0) want.push_back(clusters + ranked[p].second);
      std::vector<std::size_t> got;
      index.probe_shards(queries.row_span(q), got);
      CHECK(got == want);
    }
  }

 private:
  std::vector<float> dots_of(const float* row) const {
    const nn::detail::DotFn dot = nn::detail::dot_kernel(nn::SimdMode::kScalar);
    std::vector<float> dots(norms_.size());
    for (std::size_t c = 0; c < norms_.size(); ++c)
      dots[c] = dot(row, centroids_.data() + c * dim_, dim_);
    return dots;
  }
  std::size_t nearest(const float* row) const { return plain_argmin(norms_, dots_of(row)); }

  std::size_t dim_;
  std::vector<float> centroids_;
  std::vector<double> norms_;
  core::ClassIdSpace ids_;
  std::map<std::uint64_t, LabeledRow> rows_;
  std::uint64_t base_next_row_id_;
  std::uint64_t next_row_id_;
};

inline void check_rankings_identical(const Rankings& a, const Rankings& b) {
  CHECK(a.size() == b.size());
  for (std::size_t q = 0; q < a.size() && q < b.size(); ++q) {
    CHECK(a[q].size() == b[q].size());
    for (std::size_t i = 0; i < a[q].size() && i < b[q].size(); ++i) {
      CHECK(a[q][i].label == b[q][i].label);
      CHECK(a[q][i].votes == b[q][i].votes);
      CHECK(a[q][i].distance == b[q][i].distance);  // bit-identical, no tolerance
    }
  }
}

// One row of a probed cluster as the pruned-scan oracle sees it.
struct ProbedRow {
  double dist;
  std::uint64_t row_id;
  std::size_t class_id;
};

// Every row of exactly the shards `store` probes for `query`, sorted by
// (dist, insertion id). Distances use the scan's own formula and the active
// dot kernel, so they match the GEMM's bit for bit; everything else — the
// selection, votes, per-class minima, ranking order — is independent of the
// tile/heap machinery under test.
inline std::vector<ProbedRow> probed_rows(const core::ReferenceStore& store,
                                          std::span<const float> query) {
  const std::size_t dim = store.dim();
  const double qnorm = nn::squared_norm(query.data(), dim);
  std::vector<std::size_t> shards;
  store.probe_shards(query, shards);
  std::vector<ProbedRow> out;
  for (const std::size_t s : shards) {
    const core::ShardView view = store.shard_view(s);
    for (std::size_t j = 0; j < view.rows; ++j) {
      const float* row = view.data + j * dim;
      double dist = qnorm + nn::squared_norm(row, dim) -
                    2.0 * static_cast<double>(nn::simd_dot(query.data(), row, dim));
      if (dist < 0.0) dist = 0.0;
      out.push_back({dist, view.row_ids[j], static_cast<std::size_t>(view.class_ids[j])});
    }
  }
  std::sort(out.begin(), out.end(), [](const ProbedRow& a, const ProbedRow& b) {
    return a.dist != b.dist ? a.dist < b.dist : a.row_id < b.row_id;
  });
  return out;
}

// The ranking contract over the probed rows: the k nearest vote, every class
// id of the store appears once, and a class no probed row belongs to ranks
// with 0 votes at distance 1e300.
inline std::vector<core::RankedLabel> oracle_rank(const core::ReferenceStore& store,
                                                  std::span<const float> query, int k_cfg) {
  const std::vector<ProbedRow> rows = probed_rows(store, query);
  const std::size_t k =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(0, k_cfg)), store.size());
  std::vector<core::RankedLabel> ranking(store.n_class_ids());
  for (std::size_t id = 0; id < ranking.size(); ++id)
    ranking[id] = {store.label_of_id(id), 0, 1e300};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    core::RankedLabel& entry = ranking[rows[i].class_id];
    if (i < k) ++entry.votes;
    entry.distance = std::min(entry.distance, rows[i].dist);
  }
  std::sort(ranking.begin(), ranking.end(), ranked_before);
  return ranking;
}

// The open-world statistic over the probed rows: the neighbour-th nearest,
// clamped to the farthest probed row, sqrt(1e300) when nothing was probed.
inline double oracle_kth(const core::ReferenceStore& store, std::span<const float> query,
                         int neighbour) {
  const std::vector<ProbedRow> rows = probed_rows(store, query);
  if (rows.empty()) return std::sqrt(1e300);
  const std::size_t k = std::min<std::size_t>(
      std::min<std::size_t>(static_cast<std::size_t>(neighbour), store.size()), rows.size());
  return std::sqrt(rows[k - 1].dist);
}

// Checks one pruned store against the probed-rows oracle: full rankings
// bit for bit, the untouched tail (0 votes, 1e300, ascending label), and
// the open-world distances at two neighbour counts. Returns how many
// queries ranked one of `early_labels` inside their untouched tail.
inline std::size_t check_pruned_against_oracle(const core::ReferenceStore& store,
                                               const core::KnnClassifier& knn,
                                               const nn::Matrix& queries,
                                               const std::vector<int>& early_labels) {
  std::size_t tails_with_early = 0;
  const auto rankings = knn.rank_batch(store, queries);
  CHECK(rankings.size() == queries.rows());
  for (std::size_t q = 0; q < rankings.size(); ++q) {
    const auto want = oracle_rank(store, queries.row_span(q), knn.k());
    check_rankings_identical({want}, {rankings[q]});
    std::size_t tail = rankings[q].size();
    while (tail > 0 && rankings[q][tail - 1].votes == 0 &&
           rankings[q][tail - 1].distance == 1e300)
      --tail;
    CHECK(tail < rankings[q].size());  // P < C: some class is never probed
    bool early = false;
    for (std::size_t i = tail; i < rankings[q].size(); ++i) {
      if (i > tail) CHECK(rankings[q][i - 1].label < rankings[q][i].label);
      early = early || std::find(early_labels.begin(), early_labels.end(),
                                 rankings[q][i].label) != early_labels.end();
    }
    for (std::size_t i = 0; i < tail; ++i)
      CHECK(rankings[q][i].votes > 0 || rankings[q][i].distance < 1e300);
    if (early) ++tails_with_early;
  }
  for (const int neighbour : {3, 40}) {
    const core::OpenWorldDetector detector{core::OpenWorldConfig{neighbour, 0.95}};
    const std::vector<double> kth = detector.kth_distances(store, queries);
    CHECK(kth.size() == queries.rows());
    for (std::size_t q = 0; q < kth.size(); ++q)
      CHECK(kth[q] == oracle_kth(store, queries.row_span(q), neighbour));
  }
  return tails_with_early;
}

}  // namespace wf::test
