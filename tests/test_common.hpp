#pragma once

// Tiny assertion harness for the ctest suite: each test file is a
// standalone binary; a failed CHECK prints the location and the binary
// exits nonzero.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/knn.hpp"
#include "core/reference_store.hpp"
#include "io/binary.hpp"
#include "nn/matrix.hpp"

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

}  // namespace wf::test
