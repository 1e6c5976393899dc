// wf::index invariants: the IVF-pruned scan at P = C is bit-identical to
// the exact sharded scan (rankings AND open-world kth distances) for
// several cluster counts; the seeded k-means is deterministic and depends
// only on content, not on how the base store was sharded; P < C rankings
// and kth distances (in-memory and mapped, with journal-added classes) equal
// a brute-force scan of exactly the probed clusters; recall@10 at a
// pinned (C, P) clears 0.95; an index written to disk and reopened (mmap
// base, journal tails, full reload, rebuild) answers bit-identically to the
// in-memory store mutated the same way; every supported SIMD mode agrees
// with scalar, per dot product and through the tiled GEMM; rankings to a
// depth D are the total ranking's first D entries on IVF (P < C and P = C)
// and mapped stores, NaN rows and queries included; the aligned
// allocation the kernels rely on really is 64-byte aligned; a mapped index
// keeps answering after another index is written over its path; the
// k-means++ seeding kernel equals nn::squared_distance bit for bit in
// every mode; the nearest-centroid argmin kernel equals its plain loop in
// every mode, on ties, signed zeros, infinities, subnormals and NaN; the
// written IVFX bytes of three seeded corpora (one large enough to split the
// seeding rounds into blocks) match golden hashes in every mode; and
// writing a new index over a journaled one leaves no journal to replay.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/knn.hpp"
#include "core/openworld.hpp"
#include "core/sharded_reference_set.hpp"
#include "index/ivf.hpp"
#include "index/store.hpp"
#include "nn/matrix.hpp"
#include "nn/simd.hpp"
#include "test_common.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace {

using namespace wf;

static_assert(util::kSimdAlignment == 64, "SIMD tiles assume 64-byte rows");

// Per-process names: ctest runs this binary under several thread counts at
// once.
std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

std::vector<float> random_point(util::Rng& rng, std::size_t dim, double spread = 1.0) {
  std::vector<float> v(dim);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, spread));
  return v;
}

struct Row {
  std::vector<float> embedding;
  int label;
};

// Clustered rows with deliberate exact duplicates, so distance ties
// exercise the (dist, insertion-id) tie-break across cluster boundaries.
std::vector<Row> make_rows(util::Rng& rng, std::size_t dim, int n_classes, int per_class) {
  std::vector<Row> rows;
  for (int c = 0; c < n_classes; ++c) {
    const std::vector<float> center = random_point(rng, dim);
    for (int s = 0; s < per_class; ++s) {
      std::vector<float> e = center;
      if (s % 4 != 0)
        for (float& x : e) x += static_cast<float>(rng.normal(0.0, 0.15));
      rows.push_back({e, 700 + c});
    }
  }
  return rows;
}

void check_rankings_identical(const std::vector<std::vector<core::RankedLabel>>& a,
                              const std::vector<std::vector<core::RankedLabel>>& b) {
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

// Each query's 10 nearest row ids, via a single-slice scan (the store's k
// best candidates, sorted).
std::vector<std::vector<std::uint64_t>> top10_rows(const core::KnnClassifier& knn,
                                                   const core::ReferenceStore& store,
                                                   const nn::Matrix& queries) {
  const core::SliceScan scan = knn.scan_slice(store, queries, 0, 1);
  std::vector<std::vector<std::uint64_t>> top(scan.candidates.size());
  for (std::size_t q = 0; q < scan.candidates.size(); ++q) {
    std::vector<core::Candidate> candidates = scan.candidates[q];
    std::sort(candidates.begin(), candidates.end());
    const std::size_t n = std::min<std::size_t>(10, candidates.size());
    for (std::size_t i = 0; i < n; ++i)
      top[q].push_back(candidates[i].second >> core::kCandidateClassBits);
  }
  return top;
}

bool is_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % util::kSimdAlignment == 0;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// FNV-1a of the IVFX file that `wf index build` writes for a seeded
// clustered corpus (`classes` x `per_class` rows of width `dim`) at C =
// `clusters`, under the active SIMD mode.
std::uint64_t index_file_hash(std::size_t dim, int classes, int per_class, std::size_t clusters,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  core::ShardedReferenceSet base(dim, 3);
  for (const Row& row : make_rows(rng, dim, classes, per_class))
    base.add(row.embedding, row.label);
  index::IvfConfig config;
  config.clusters = clusters;
  config.probes = 4;
  const std::string path = temp_path("wf_test_index_golden.wfx");
  index::write_index_file(path, index::IvfReferenceStore(base, config));
  const std::uint64_t h = fnv1a(test::read_file(path));
  std::filesystem::remove(path);
  return h;
}

// The IVFX bytes of the corpora as every earlier build has written them:
// 4,000 rows at dim 32 in 64 clusters (a 2,048-row training sample), 1,000
// rows at the odd width 13 in 16 clusters, and 6,006 rows at dim 32 in 200
// clusters. That last sample (all 6,006 rows) is past the size from which
// the seeding rounds run in blocks on the pool, and its last block is a
// short one.
constexpr std::uint64_t kWideIndexHash = 0xafa85da2c8430ec6ull;
constexpr std::uint64_t kOddIndexHash = 0xfecbf8ae3316ef8full;
constexpr std::uint64_t kBlockedIndexHash = 0x85580314ca6a2741ull;

// The nearest-centroid rule written out: the first cluster of least margin
// under strict <, so a NaN margin never wins and a NaN margin(0) stays.
std::size_t plain_argmin(const std::vector<double>& norms, const std::vector<float>& dots) {
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

// Every supported argmin kernel against plain_argmin on one input.
void check_argmin(const std::vector<double>& norms, const std::vector<float>& dots) {
  const std::size_t want = plain_argmin(norms, dots);
  for (const nn::SimdMode mode : nn::supported_simd_modes()) {
    const std::size_t got =
        nn::detail::argmin_margin_kernel(mode)(norms.data(), dots.data(), norms.size());
    if (got != want)
      std::cerr << nn::simd_mode_name(mode) << " argmin over " << norms.size() << ": " << got
                << ", want " << want << "\n";
    CHECK(got == want);
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
std::vector<ProbedRow> probed_rows(const core::ReferenceStore& store,
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
std::vector<core::RankedLabel> oracle_rank(const core::ReferenceStore& store,
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
  std::sort(ranking.begin(), ranking.end(),
            [](const core::RankedLabel& a, const core::RankedLabel& b) {
              if (a.votes != b.votes) return a.votes > b.votes;
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.label < b.label;
            });
  return ranking;
}

// The open-world statistic over the probed rows: the neighbour-th nearest,
// clamped to the farthest probed row, sqrt(1e300) when nothing was probed.
double oracle_kth(const core::ReferenceStore& store, std::span<const float> query,
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
std::size_t check_pruned_against_oracle(const core::ReferenceStore& store,
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

}  // namespace

int main() {
  util::Rng rng(515);
  const std::size_t dim = 16;
  const std::vector<Row> rows = make_rows(rng, dim, 12, 12);

  core::ShardedReferenceSet flat(dim, 3);
  for (const Row& row : rows) flat.add(row.embedding, row.label);

  nn::Matrix queries(24, dim);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    std::vector<float> point = rows[(q * 7) % rows.size()].embedding;
    for (float& x : point) x += static_cast<float>(rng.normal(0.0, 0.2));
    queries.set_row(q, point);
  }

  const core::KnnClassifier knn(15);
  const core::OpenWorldDetector detector{core::OpenWorldConfig{}};
  const auto exact_rankings = knn.rank_batch(flat, queries);
  const std::vector<double> exact_kth = detector.kth_distances(flat, queries);

  // --- 64-byte alignment of the tiles every SIMD kernel loads ---------------
  {
    util::AlignedVector<float> v(193);
    CHECK(is_aligned(v.data()));
    const nn::Matrix m(5, 37);
    CHECK(is_aligned(m.data()));
    for (std::size_t c = 0; c < flat.shard_count(); ++c)
      CHECK(is_aligned(flat.shard_view(c).data));
  }

  // --- P = C reproduces the exact scan bit for bit, at several C ------------
  for (const std::size_t clusters : {std::size_t{1}, std::size_t{4}, std::size_t{9}}) {
    index::IvfConfig config;
    config.clusters = clusters;
    config.probes = 0;  // all clusters
    const index::IvfReferenceStore ivf(flat, config);
    CHECK(ivf.clusters() == clusters);
    CHECK(ivf.size() == flat.size());
    CHECK(ivf.pruned());
    CHECK(ivf.classes() == flat.classes());
    for (std::size_t c = 0; c < ivf.clusters(); ++c)
      CHECK(is_aligned(ivf.cell(c).data.data()));
    check_rankings_identical(exact_rankings, knn.rank_batch(ivf, queries));
    const std::vector<double> ivf_kth = detector.kth_distances(ivf, queries);
    CHECK(ivf_kth.size() == exact_kth.size());
    for (std::size_t q = 0; q < exact_kth.size(); ++q) CHECK(ivf_kth[q] == exact_kth[q]);
    // The scalar path goes through the same probe plan.
    const auto scalar = knn.rank(ivf, queries.row_span(0));
    CHECK(!scalar.empty() && scalar.front().label == exact_rankings[0].front().label);
    CHECK(scalar.front().distance == exact_rankings[0].front().distance);
  }

  // --- seeded k-means: deterministic, and a function of content only -------
  {
    index::IvfConfig config;
    config.clusters = 5;
    const index::IvfReferenceStore a(flat, config);
    const index::IvfReferenceStore b(flat, config);
    CHECK(a.centroids().size() == b.centroids().size());
    for (std::size_t i = 0; i < a.centroids().size(); ++i)
      CHECK(a.centroids()[i] == b.centroids()[i]);

    // Same rows in the same insertion order, different base sharding: the
    // build gathers by global row id, so the result is identical.
    core::ShardedReferenceSet reshard(dim, 7);
    for (const Row& row : rows) reshard.add(row.embedding, row.label);
    const index::IvfReferenceStore c(reshard, config);
    for (std::size_t i = 0; i < a.centroids().size(); ++i)
      CHECK(a.centroids()[i] == c.centroids()[i]);
    for (std::size_t cell = 0; cell < a.clusters(); ++cell)
      CHECK(a.cell(cell).row_ids == c.cell(cell).row_ids);
    config.probes = 2;
    index::IvfReferenceStore pruned_a(flat, config);
    index::IvfReferenceStore pruned_c(reshard, config);
    check_rankings_identical(knn.rank_batch(pruned_a, queries),
                             knn.rank_batch(pruned_c, queries));
  }

  // --- recall@10 at a pinned (C, P) -----------------------------------------
  {
    util::Rng corpus_rng(9102);
    const std::vector<Row> big = make_rows(corpus_rng, dim, 40, 50);  // 2000 rows
    core::ShardedReferenceSet base(dim, 2);
    for (const Row& row : big) base.add(row.embedding, row.label);
    nn::Matrix probes(50, dim);
    for (std::size_t q = 0; q < probes.rows(); ++q) {
      std::vector<float> point = big[(q * 37) % big.size()].embedding;
      for (float& x : point) x += static_cast<float>(corpus_rng.normal(0.0, 0.2));
      probes.set_row(q, point);
    }
    index::IvfConfig config;
    config.clusters = 32;
    config.probes = 8;
    const index::IvfReferenceStore ivf(base, config);
    CHECK(ivf.effective_probes() == 8);
    const auto want = top10_rows(knn, base, probes);
    const auto got = top10_rows(knn, ivf, probes);
    double sum = 0.0;
    for (std::size_t q = 0; q < want.size(); ++q) {
      std::vector<std::uint64_t> w = want[q], g = got[q];
      std::sort(w.begin(), w.end());
      std::sort(g.begin(), g.end());
      std::vector<std::uint64_t> common;
      std::set_intersection(w.begin(), w.end(), g.begin(), g.end(),
                            std::back_inserter(common));
      sum += static_cast<double>(common.size()) / static_cast<double>(w.size());
    }
    const double recall = sum / static_cast<double>(want.size());
    CHECK(recall >= 0.95);
  }

  // --- on-disk round trip: mmap open answers bit-identically ----------------
  const std::string path = temp_path("wf_test_index.wfx");
  index::IvfConfig disk_config;
  disk_config.clusters = 6;
  index::IvfReferenceStore mem(flat, disk_config);
  {
    index::write_index_file(path, mem);
    const std::unique_ptr<core::ReferenceStore> mapped = index::open_index(path);
    CHECK(mapped->size() == mem.size());
    CHECK(mapped->dim() == mem.dim());
    CHECK(mapped->pruned());
    check_rankings_identical(knn.rank_batch(mem, queries), knn.rank_batch(*mapped, queries));
    check_rankings_identical(exact_rankings, knn.rank_batch(*mapped, queries));

    // Pruned probes match the in-memory pruned scan, query by query.
    const std::unique_ptr<core::ReferenceStore> mapped2 = index::open_index(path, 2);
    index::IvfReferenceStore mem2 = mem;
    mem2.set_probes(2);
    check_rankings_identical(knn.rank_batch(mem2, queries), knn.rank_batch(*mapped2, queries));

    // Depth oracle on every IVF flavour, at k = 0, within and beyond the
    // row count, with a NaN query; a NaN row appended to a cell (and
    // written to a second file) sits in the heap of every query at k > n.
    std::vector<float> nan_row(dim, 0.0f);
    nan_row[0] = std::nanf("");
    nn::Matrix odd(queries.rows() + 1, dim);
    for (std::size_t q = 0; q < queries.rows(); ++q) odd.set_row(q, queries.row_span(q));
    odd.set_row(queries.rows(), nan_row);
    index::IvfReferenceStore with_nan = mem;
    with_nan.add(nan_row, 700);
    const std::string nan_path = temp_path("wf_test_index_nan.wfx");
    index::write_index_file(nan_path, with_nan);
    const std::unique_ptr<core::ReferenceStore> mapped_nan = index::open_index(nan_path, 2);
    // One row left in one cell at P = 1: most queries probe only empty cells,
    // so their heaps stay empty and their rankings are all untouched tail.
    index::IvfReferenceStore hollow = mem;
    hollow.set_probes(1);
    for (const int label : hollow.classes()) hollow.remove_class(label);
    hollow.add(rows.front().embedding, 7000);
    for (const int k : {0, 1, 15, 1000}) {
      const core::KnnClassifier depth_knn(k);
      const std::vector<const core::ReferenceStore*> stores = {
          &mem, &mem2, mapped.get(), mapped2.get(), &with_nan, mapped_nan.get(), &hollow};
      for (const core::ReferenceStore* store : stores)
        test::check_depth_prefixes(depth_knn, *store, odd);
    }
    std::filesystem::remove(nan_path);

    // The info reader sees the same shape without touching the data.
    const index::IndexInfo info = index::read_index_info(path);
    CHECK(info.dim == dim);
    CHECK(info.clusters == 6);
    CHECK(info.rows == mem.size());
    CHECK(info.journal_bytes == 0);
  }

  // --- writing over a mapped index leaves the mapping answering -----------
  // A serving process keeps its mapping while `wf index build` replaces the
  // file with a different, smaller index.
  {
    const std::string live_path = temp_path("wf_test_index_live.wfx");
    index::write_index_file(live_path, mem);
    const std::unique_ptr<core::ReferenceStore> serving = index::open_index(live_path);
    const auto before = knn.rank_batch(*serving, queries);
    util::Rng other_rng(99);
    core::ShardedReferenceSet other(dim, 2);
    for (const Row& row : make_rows(other_rng, dim, 3, 5)) other.add(row.embedding, row.label);
    index::IvfConfig other_config;
    other_config.clusters = 2;
    index::write_index_file(live_path, index::IvfReferenceStore(other, other_config));
    check_rankings_identical(before, knn.rank_batch(*serving, queries));
    check_rankings_identical(exact_rankings, knn.rank_batch(*serving, queries));
    CHECK(index::open_index(live_path)->size() == other.size());
    CHECK(!std::filesystem::exists(live_path + ".tmp"));
    std::filesystem::remove(live_path);
  }

  // --- journal appends: mapped tails == in-memory adds ----------------------
  {
    index::IvfReferenceStore churned = mem;
    index::IndexJournalWriter journal(path);
    util::Rng fresh(77);
    for (int i = 0; i < 9; ++i) {
      const std::vector<float> e = random_point(fresh, dim);
      const int label = (i < 3) ? 990 : rows[static_cast<std::size_t>(i)].label;
      churned.add(e, label);
      journal.add(e, label);
    }
    CHECK(std::filesystem::exists(journal.journal_path()));
    const std::unique_ptr<core::ReferenceStore> mapped = index::open_index(path);
    CHECK(mapped->size() == churned.size());
    check_rankings_identical(knn.rank_batch(churned, queries), knn.rank_batch(*mapped, queries));
    const index::IndexInfo info = index::read_index_info(path);
    CHECK(info.journal_adds == 9);
    CHECK(info.journal_bytes > 0);

    // A removal replays onto the mapping too (copy-on-write): the open is
    // still a MappedIndex and answers exactly like the in-memory store.
    journal.remove_class(700);
    churned.remove_class(700);
    // The class of the last add goes too, so the highest live row id falls
    // below next_row_id: compaction must keep the sequence, not restart it.
    journal.remove_class(rows[8].label);
    churned.remove_class(rows[8].label);
    const std::unique_ptr<core::ReferenceStore> reloaded = index::open_index(path);
    CHECK(dynamic_cast<const index::MappedIndex*>(reloaded.get()) != nullptr);
    CHECK(reloaded->size() == churned.size());
    check_rankings_identical(knn.rank_batch(churned, queries),
                             knn.rank_batch(*reloaded, queries));

    // Compaction: rebuild the file, journal gone, answers == a fresh
    // clustering of the identically-churned in-memory store. With the
    // row-id sequence carried over, the two files match byte for byte.
    const std::size_t compacted = index::rebuild_index_file(path);
    CHECK(compacted == churned.size());
    CHECK(!std::filesystem::exists(journal.journal_path()));
    CHECK(index::read_index_info(path).next_row_id == churned.next_row_id());
    const index::IvfReferenceStore oracle(churned, churned.config(), churned.next_row_id());
    const std::unique_ptr<core::ReferenceStore> rebuilt = index::open_index(path);
    check_rankings_identical(knn.rank_batch(oracle, queries),
                             knn.rank_batch(*rebuilt, queries));
    const std::string oracle_file = temp_path("wf_test_index_compact_oracle.wfx");
    index::write_index_file(oracle_file, oracle);
    CHECK(test::read_file(oracle_file) == test::read_file(path));
    std::filesystem::remove(oracle_file);
  }

  // --- P < C against a brute-force scan of exactly the probed clusters -----
  // Journal-added classes carry labels below every base label but the
  // highest class ids, so the untouched tail's label order differs from
  // class-id order; neighbour = 40 exceeds every probed cluster at P = 1,
  // which exercises the pruned-probe clamp.
  {
    const std::string oracle_path = temp_path("wf_test_index_oracle.wfx");
    index::IvfConfig config;
    config.clusters = 6;
    index::IvfReferenceStore live(flat, config);
    index::write_index_file(oracle_path, live);
    index::IndexJournalWriter journal(oracle_path);
    const std::vector<int> early_labels = {42, 7, 3};
    util::Rng fresh(4242);
    for (int i = 0; i < 6; ++i) {
      const std::vector<float> e = random_point(fresh, dim);
      const int label = early_labels[static_cast<std::size_t>(i) % early_labels.size()];
      live.add(e, label);
      journal.add(e, label);
    }
    CHECK(live.label_of_id(live.n_class_ids() - 1) < live.label_of_id(0));
    std::size_t tails_with_early = 0;
    for (const std::size_t probes : {std::size_t{1}, std::size_t{2}}) {
      live.set_probes(probes);
      const std::unique_ptr<core::ReferenceStore> mapped = index::open_index(oracle_path, probes);
      CHECK(mapped->n_class_ids() == live.n_class_ids());
      tails_with_early += check_pruned_against_oracle(live, knn, queries, early_labels);
      tails_with_early += check_pruned_against_oracle(*mapped, knn, queries, early_labels);
    }
    CHECK(tails_with_early > 0);
    std::filesystem::remove(journal.journal_path());
    std::filesystem::remove(oracle_path);
  }

  // --- every supported SIMD mode agrees with scalar -------------------------
  {
    const nn::SimdMode previous = nn::simd_mode();
    util::Rng vec_rng(41);
    const std::vector<float> a = random_point(vec_rng, 259);
    const std::vector<float> b = random_point(vec_rng, 259);
    const float scalar_dot = nn::detail::dot_kernel(nn::SimdMode::kScalar)(a.data(), b.data(),
                                                                           a.size());
    for (const nn::SimdMode mode : nn::supported_simd_modes()) {
      const float mode_dot = nn::detail::dot_kernel(mode)(a.data(), b.data(), a.size());
      CHECK_NEAR(mode_dot, scalar_dot, 1e-6);
      CHECK(mode_dot == scalar_dot);  // same operation order: bit-identical
      CHECK(nn::set_simd_mode(mode));
      check_rankings_identical(exact_rankings, knn.rank_batch(flat, queries));
      check_rankings_identical(exact_rankings, knn.rank_batch(mem, queries));
    }
    nn::set_simd_mode(previous);
  }

  // --- the tiled GEMM equals per-pair scalar dots bit for bit ---------------
  // Shapes straddle the 8-lane inner loop (k), the 8-row register tile and
  // the 128-row column block (n). Row 3 (or the last) of b makes every
  // product with query 0 equal -0.0: the scalar kernel returns +0.0 because
  // its lanes and tail start at +0.0, and a kernel that skips those seeds
  // returns -0.0.
  {
    const nn::SimdMode previous = nn::simd_mode();
    const nn::detail::DotFn scalar = nn::detail::dot_kernel(nn::SimdMode::kScalar);
    util::Rng gemm_rng(43);
    for (const nn::SimdMode mode : nn::supported_simd_modes()) {
      CHECK(nn::set_simd_mode(mode));
      for (const std::size_t k : {1, 7, 8, 9, 31, 32, 33, 259}) {
        for (const std::size_t n : {1, 7, 8, 9, 127, 128, 129}) {
          for (const std::size_t m : {1, 3, 32}) {
            const std::vector<float> a = random_point(gemm_rng, m * k);
            std::vector<float> b = random_point(gemm_rng, n * k);
            const std::size_t zero_row = std::min<std::size_t>(3, n - 1);
            for (std::size_t i = 0; i < k; ++i)
              b[zero_row * k + i] = std::copysign(0.0f, -a[i]);
            std::vector<float> dots(m * n), expected(m * n);
            nn::gemm_nt_serial(a.data(), m, b.data(), n, k, dots.data());
            for (std::size_t i = 0; i < m; ++i)
              for (std::size_t j = 0; j < n; ++j)
                expected[i * n + j] = scalar(a.data() + i * k, b.data() + j * k, k);
            CHECK(std::memcmp(dots.data(), expected.data(), dots.size() * sizeof(float)) == 0);
            CHECK(!std::signbit(expected[zero_row]));
          }
        }
      }
    }
    nn::set_simd_mode(previous);
  }

  // --- the seeding kernel equals nn::squared_distance lane by lane ---------
  // Sample 0 equals the point (distance +0.0); samples 1 and n - 1 hold
  // large magnitudes of both signs. Counts 1 to 5 run the one-lane tail
  // alone, 255 and 257 run it after the 16-lane tiles.
  {
    util::Rng lane_rng(47);
    for (const nn::SimdMode mode : nn::supported_simd_modes()) {
      const nn::detail::SquaredDistancesFn distances =
          nn::detail::squared_distances_kernel(mode);
      for (const std::size_t d : {1, 3, 4, 7, 8, 9, 31, 32, 33}) {
        for (const std::size_t n : {1, 3, 4, 5, 255, 257}) {
          const std::vector<float> point = random_point(lane_rng, d);
          std::vector<std::vector<float>> samples;
          for (std::size_t s = 0; s < n; ++s) samples.push_back(random_point(lane_rng, d, 3.0));
          samples[0] = point;
          for (const std::size_t s : {std::size_t{1}, n - 1})
            if (s > 0 && s < n)
              for (std::size_t i = 0; i < d; ++i)
                samples[s][i] = (i % 2 == 0 ? 1.0e38f : -1.7e19f) * (1.0f + 0.01f * samples[s][i]);
          std::vector<float> cols(d * n);
          for (std::size_t s = 0; s < n; ++s)
            for (std::size_t i = 0; i < d; ++i) cols[i * n + s] = samples[s][i];
          std::vector<double> got(n, -1.0), want(n);
          distances(cols.data(), n, point.data(), d, got.data());
          for (std::size_t s = 0; s < n; ++s) want[s] = nn::squared_distance(samples[s], point);
          CHECK(std::memcmp(got.data(), want.data(), n * sizeof(double)) == 0);
          CHECK(got[0] == 0.0 && !std::signbit(got[0]));
        }
      }
    }
  }

  // --- the argmin kernel equals the plain loop ------------------------------
  // Counts straddle the 4-margin registers, the 16-margin unrolled loop and
  // the tail. Least margins tie across lanes, across registers and across
  // the vector/tail boundary, as exact copies and as -0.0 beside +0.0;
  // infinities, subnormals and NaN (first, in the middle, everywhere) are
  // mixed in.
  {
    util::Rng argmin_rng(53);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double tiny = std::numeric_limits<double>::denorm_min();
    for (const std::size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 512, 513}) {
      std::vector<double> norms(n);
      std::vector<float> dots(n);
      const auto fill = [&] {
        for (std::size_t c = 0; c < n; ++c) {
          norms[c] = 4.0 + argmin_rng.uniform();  // every margin in (2, 7)
          dots[c] = static_cast<float>(2.0 * argmin_rng.uniform() - 1.0);
        }
      };
      fill();
      check_argmin(norms, dots);

      // Two least margins: equal copies, then -0.0 before +0.0 and after it.
      const std::size_t vec_end = n & ~std::size_t{3};
      const std::pair<std::size_t, std::size_t> pairs[] = {
          {0, 1}, {1, 2}, {2, 5}, {3, 12}, {0, n - 1}, {vec_end - 1, n - 1}, {n - 2, n - 1}};
      for (const auto& [p, q] : pairs) {
        if (p >= q || q >= n) continue;
        for (const int kind : {0, 1, 2}) {
          fill();
          const double lo = kind == 0 ? -100.0 : (kind == 1 ? -0.0 : 0.0);
          const double hi = kind == 0 ? -100.0 : (kind == 1 ? 0.0 : -0.0);
          norms[p] = lo;
          norms[q] = hi;
          dots[p] = dots[q] = 0.0f;
          check_argmin(norms, dots);
          CHECK(nn::detail::argmin_margin_kernel(nn::simd_mode())(norms.data(), dots.data(),
                                                                   n) == p);
        }
      }

      // Subnormal margins: the least one, repeated, beside larger ones.
      for (std::size_t c = 0; c < n; ++c) {
        norms[c] = tiny * static_cast<double>(1 + (c * 7) % 5);
        dots[c] = 0.0f;
      }
      check_argmin(norms, dots);

      // Infinities: +inf everywhere, then one -inf; inf - inf is NaN.
      fill();
      for (std::size_t c = 0; c < n; c += 3) norms[c] = inf;
      check_argmin(norms, dots);
      std::fill(norms.begin(), norms.end(), inf);
      check_argmin(norms, dots);
      norms[n / 2] = -inf;
      check_argmin(norms, dots);
      fill();
      norms[n - 1] = inf;
      dots[n - 1] = std::numeric_limits<float>::infinity();
      check_argmin(norms, dots);

      // NaN in the middle, NaN first (the answer is 0), NaN everywhere.
      fill();
      for (std::size_t c = n / 3; c < n; c += 5) norms[c] = nan;
      check_argmin(norms, dots);
      // A NaN after the least margin in the same register lane, one and
      // four registers later: a minimum that let the NaN through would
      // lose the least margin.
      for (const std::size_t p : {1, 6, 15}) {
        if (p >= n) continue;
        fill();
        norms[p] = -100.0;
        if (p + 4 < n) norms[p + 4] = nan;
        if (p + 16 < n) norms[p + 16] = nan;
        check_argmin(norms, dots);
      }
      fill();
      norms[0] = nan;
      check_argmin(norms, dots);
      CHECK(nn::detail::argmin_margin_kernel(nn::simd_mode())(norms.data(), dots.data(), n) ==
            0);
      std::fill(norms.begin(), norms.end(), nan);
      check_argmin(norms, dots);
      // NaN everywhere but the first and the last margins.
      norms[n - 1] = 1.0;
      norms[0] = 2.0;
      check_argmin(norms, dots);
    }
  }

  // --- a new index over a journaled path drops the old journal -------------
  // The journal belongs to the base it was written against: replayed onto
  // a new base it would add the old rows and removals (same cluster count)
  // or make every open fail (a different one).
  {
    const std::string stale_path = temp_path("wf_test_index_stale.wfx");
    util::Rng stale_rng(808);
    core::ShardedReferenceSet old_rows(dim, 2);
    for (const Row& row : make_rows(stale_rng, dim, 20, 20)) old_rows.add(row.embedding, row.label);
    CHECK(old_rows.size() == 400);
    index::IvfConfig config;
    config.clusters = 8;
    index::write_index_file(stale_path, index::IvfReferenceStore(old_rows, config));
    {
      index::IndexJournalWriter journal(stale_path);
      for (int i = 0; i < 3; ++i) journal.add(random_point(stale_rng, dim), 990);
      journal.remove_class(700);
      CHECK(index::open_index(stale_path)->size() == 400 + 3 - 20);
    }
    core::ShardedReferenceSet new_rows(dim, 2);
    for (const Row& row : make_rows(stale_rng, dim, 5, 20)) new_rows.add(row.embedding, row.label);
    const index::IvfReferenceStore fresh(new_rows, config);
    index::write_index_file(stale_path, fresh);
    CHECK(!std::filesystem::exists(stale_path + ".journal"));
    const std::unique_ptr<core::ReferenceStore> reopened = index::open_index(stale_path);
    CHECK(reopened->size() == 100);
    std::vector<int> labels;
    for (std::size_t id = 0; id < reopened->n_class_ids(); ++id)
      labels.push_back(reopened->label_of_id(id));
    std::sort(labels.begin(), labels.end());
    CHECK(labels == fresh.classes());
    CHECK(std::find(labels.begin(), labels.end(), 990) == labels.end());
    check_rankings_identical(knn.rank_batch(fresh, queries), knn.rank_batch(*reopened, queries));

    // A different cluster count over a journaled path opens too.
    index::IndexJournalWriter(stale_path).add(random_point(stale_rng, dim), 991);
    config.clusters = 3;
    const index::IvfReferenceStore coarse(new_rows, config);
    index::write_index_file(stale_path, coarse);
    const std::unique_ptr<core::ReferenceStore> coarse_open = index::open_index(stale_path);
    CHECK(coarse_open->size() == 100);
    CHECK(index::read_index_info(stale_path).clusters == 3);
    check_rankings_identical(knn.rank_batch(coarse, queries),
                             knn.rank_batch(*coarse_open, queries));
    std::filesystem::remove(stale_path);
  }

  // --- the index layout is pinned to history, under every SIMD mode ------
  {
    const nn::SimdMode previous = nn::simd_mode();
    for (const nn::SimdMode mode : nn::supported_simd_modes()) {
      CHECK(nn::set_simd_mode(mode));
      const std::uint64_t wide = index_file_hash(32, 80, 50, 64, 2604);
      const std::uint64_t odd = index_file_hash(13, 25, 40, 16, 1313);
      const std::uint64_t blocked = index_file_hash(32, 143, 42, 200, 2806);
      std::cout << nn::simd_mode_name(mode) << std::hex << ": wide index 0x" << wide
                << ", odd index 0x" << odd << ", blocked index 0x" << blocked << std::dec
                << "\n";
      CHECK(wide == kWideIndexHash);
      CHECK(odd == kOddIndexHash);
      CHECK(blocked == kBlockedIndexHash);
    }
    nn::set_simd_mode(previous);
  }

  std::filesystem::remove(path);
  return TEST_MAIN_RESULT();
}
