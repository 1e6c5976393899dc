// The sharded reference store is exact at every shard count: for S = 1, 2
// and 7, rank()/rank_batch() and kth_distances() agree with the independent
// linear scans of test_common.hpp (labels and votes exactly, distances
// within 1e-4), and S = 2 / 7 are bit-identical to S = 1 — before and after
// probe-and-swap (remove_class + re-add), with empty shards, and with k
// beyond the row count. Rankings to a depth D are the total ranking's first
// D entries, also with k = 0, k beyond the row count, an empty store, a NaN
// query and a NaN reference row.
#include <algorithm>
#include <cmath>
#include <vector>

#include "core/knn.hpp"
#include "core/openworld.hpp"
#include "core/sharded_reference_set.hpp"
#include "nn/matrix.hpp"
#include "test_common.hpp"
#include "util/rng.hpp"

namespace {

using namespace wf;
using test::LabeledRow;

constexpr int kNeighbour = 5;

std::vector<float> random_point(util::Rng& rng, std::size_t dim, double spread = 1.0) {
  std::vector<float> v(dim);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, spread));
  return v;
}

// Rankings must agree exactly: same labels, same votes, bitwise-equal
// per-class nearest distances.
void check_rankings_identical(const std::vector<core::RankedLabel>& a,
                              const std::vector<core::RankedLabel>& b) {
  CHECK(a.size() == b.size());
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    CHECK(a[i].label == b[i].label);
    CHECK(a[i].votes == b[i].votes);
    CHECK(a[i].distance == b[i].distance);  // bit-identical, no tolerance
  }
}

// Against the brute-force oracle: exact labels and votes; distances differ
// only by the kernel's ‖q‖² + ‖r‖² − 2·q·r rounding.
void check_rankings_match_oracle(const std::vector<core::RankedLabel>& expected,
                                 const std::vector<core::RankedLabel>& got) {
  CHECK(got.size() == expected.size());
  for (std::size_t i = 0; i < got.size() && i < expected.size(); ++i) {
    CHECK(got[i].label == expected[i].label);
    CHECK(got[i].votes == expected[i].votes);
    CHECK_NEAR(got[i].distance, expected[i].distance, 1e-4);
  }
}

// Clustered rows with deliberate duplicates so distance ties exercise the
// (dist, insertion-id) tie-break across shard boundaries.
std::vector<LabeledRow> make_rows(util::Rng& rng, std::size_t dim, int n_classes,
                                  int per_class) {
  std::vector<LabeledRow> rows;
  for (int c = 0; c < n_classes; ++c) {
    const std::vector<float> center = random_point(rng, dim);
    for (int s = 0; s < per_class; ++s) {
      std::vector<float> e = center;
      if (s % 4 != 0)  // every 4th row is an exact duplicate of the center
        for (float& x : e) x += static_cast<float>(rng.normal(0.0, 0.1));
      rows.push_back({e, 400 + c});
    }
  }
  return rows;
}

std::vector<int> distinct_labels(const std::vector<LabeledRow>& rows) {
  std::vector<int> labels;
  for (const LabeledRow& r : rows) labels.push_back(r.label);
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

// The S = 1 answers every other shard count must reproduce bit for bit.
struct Baseline {
  std::vector<std::vector<core::RankedLabel>> rankings;
  std::vector<double> kth;
};

// One store holding exactly `rows` (in insertion order): oracle agreement,
// scalar rank == batched rank, and bit-identity with the S = 1 baseline
// (recorded on first use).
void check_store(const core::ShardedReferenceSet& store, const std::vector<LabeledRow>& rows,
                 const nn::Matrix& queries, const core::KnnClassifier& knn,
                 const core::OpenWorldDetector& detector, Baseline& baseline) {
  CHECK(store.size() == rows.size());
  CHECK(store.classes() == distinct_labels(rows));
  const auto rankings = knn.rank_batch(store, queries);
  const std::vector<double> kth = detector.kth_distances(store, queries);
  CHECK(rankings.size() == queries.rows());
  CHECK(kth.size() == queries.rows());
  for (std::size_t q = 0; q < queries.rows() && q < rankings.size() && q < kth.size(); ++q) {
    check_rankings_match_oracle(test::brute_force_rank(rows, queries.row_span(q), knn.k()),
                                rankings[q]);
    CHECK_NEAR(kth[q], test::brute_force_kth_distance(rows, queries.row_span(q), kNeighbour),
               1e-4);
  }
  // The scalar rank() is a one-row rank_batch.
  for (std::size_t q = 0; q < queries.rows() && q < rankings.size(); q += 5)
    check_rankings_identical(rankings[q], knn.rank(store, queries.row_span(q)));
  test::check_depth_prefixes(knn, store, queries);

  if (baseline.rankings.empty()) {
    baseline = {rankings, kth};
    return;
  }
  CHECK(rankings.size() == baseline.rankings.size());
  for (std::size_t q = 0; q < rankings.size() && q < baseline.rankings.size(); ++q)
    check_rankings_identical(baseline.rankings[q], rankings[q]);
  CHECK(kth == baseline.kth);  // bit-identical merge
}

}  // namespace

int main() {
  util::Rng rng(29);
  const std::size_t dim = 12;
  const std::vector<LabeledRow> rows = make_rows(rng, dim, 9, 14);

  nn::Matrix queries(37, dim);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    // Mix of cluster-adjacent and far-away queries.
    std::vector<float> v = q % 3 == 0 ? random_point(rng, dim, 3.0) : rows[q * 3].embedding;
    if (q % 3 != 0)
      for (float& x : v) x += static_cast<float>(rng.normal(0.0, 0.05));
    queries.set_row(q, v);
  }

  // Probe-and-swap: drop one class, re-add fresh rows for it plus a
  // brand-new class (the swap invariant the adaptive attacker relies on).
  const int victim = 404;
  std::vector<LabeledRow> fresh;
  {
    util::Rng swap_rng(91);
    fresh = make_rows(swap_rng, dim, 1, 10);
    for (LabeledRow& r : fresh) r.label = victim;
    fresh.push_back({random_point(swap_rng, dim), 499});  // never-seen class
  }
  std::vector<LabeledRow> swapped_rows;
  for (const LabeledRow& r : rows)
    if (r.label != victim) swapped_rows.push_back(r);
  swapped_rows.insert(swapped_rows.end(), fresh.begin(), fresh.end());

  const core::KnnClassifier knn(17);
  const core::OpenWorldDetector detector({.neighbour = kNeighbour, .target_tpr = 0.9});
  Baseline before_swap, after_swap;
  for (const std::size_t n_shards : {1u, 2u, 7u}) {
    core::ShardedReferenceSet sharded(dim, n_shards);
    for (const LabeledRow& r : rows) sharded.add(r.embedding, r.label);
    CHECK(sharded.shard_count() == n_shards);
    check_store(sharded, rows, queries, knn, detector, before_swap);

    sharded.remove_class(victim);
    for (const LabeledRow& r : fresh) sharded.add(r.embedding, r.label);
    check_store(sharded, swapped_rows, queries, knn, detector, after_swap);
  }

  // Degenerate layouts: more shards than rows (some shards stay empty), k
  // far beyond the row count, and fewer rows than the open-world neighbour.
  {
    const std::vector<LabeledRow> few(rows.begin(), rows.begin() + 4);
    core::ShardedReferenceSet tiny(dim, 7);
    core::ShardedReferenceSet tiny_single(dim, 1);
    for (const LabeledRow& r : few) {
      tiny.add(r.embedding, r.label);
      tiny_single.add(r.embedding, r.label);
    }
    const core::KnnClassifier wide(50);
    for (std::size_t q = 0; q < 6; ++q) {
      const auto ranking = wide.rank(tiny, queries.row_span(q));
      check_rankings_identical(wide.rank(tiny_single, queries.row_span(q)), ranking);
      check_rankings_match_oracle(test::brute_force_rank(few, queries.row_span(q), wide.k()),
                                  ranking);
    }
    const std::vector<double> kth = detector.kth_distances(tiny, queries);
    CHECK(kth == detector.kth_distances(tiny_single, queries));
    for (std::size_t q = 0; q < queries.rows() && q < kth.size(); ++q)
      CHECK_NEAR(kth[q], test::brute_force_kth_distance(few, queries.row_span(q), kNeighbour),
                 1e-4);
  }

  // Depth oracle on awkward inputs. The NaN reference row goes in first, so
  // it is scanned while every heap fills and stays there; the NaN query's
  // heap holds nothing but NaN distances. Both force the depth-1 fallback
  // through the per-class path.
  {
    std::vector<float> nan_row(dim, 0.0f);
    nan_row[3] = std::nanf("");
    nn::Matrix odd(queries.rows() + 1, dim);
    for (std::size_t q = 0; q < queries.rows(); ++q) odd.set_row(q, queries.row_span(q));
    odd.set_row(queries.rows(), nan_row);
    for (const std::size_t n_shards : {1u, 2u, 7u}) {
      core::ShardedReferenceSet store(dim, n_shards);
      store.add(nan_row, 400);
      for (const LabeledRow& r : rows) store.add(r.embedding, r.label);
      for (const int k : {0, 1, 17, 1000})
        test::check_depth_prefixes(core::KnnClassifier(k), store, odd);
      const core::ShardedReferenceSet empty(dim, n_shards);
      test::check_depth_prefixes(knn, empty, odd);
    }
  }

  return TEST_MAIN_RESULT();
}
