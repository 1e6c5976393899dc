// wf::index invariants, on the index as it serves (a written file opened as
// MappedIndex): the IVF-pruned scan at P = C is bit-identical to the exact
// sharded scan (rankings AND open-world kth distances) for several cluster
// counts; the seeded k-means is deterministic and depends only on content,
// not on how the base store was sharded, down to the written bytes; P < C
// probes take the P nearest centroids, and their rankings and kth
// distances (with journal-added classes) equal a brute-force scan of
// exactly the probed clusters; recall@10 at a pinned (C, P) clears 0.95; a
// journal of adds and removals replays to test::IndexOracle's rows, id
// space and nearest-centroid cells, and compacts to the bytes of a build of
// the oracle's rows; a journal torn inside a record or its header opens
// without the torn part, and the next writer cuts it off; every supported
// SIMD mode agrees with scalar, per dot product and through the tiled GEMM;
// rankings to a depth D are the total ranking's first D entries at P < C
// and P = C, NaN rows and queries included; the aligned allocation the
// kernels rely on really is 64-byte aligned; a mapped index keeps answering
// after another index is written over its path; the k-means++ seeding
// kernel equals nn::squared_distance bit for bit in every mode; the
// nearest-centroid argmin kernel equals its plain loop in every mode, on
// ties, signed zeros, infinities, subnormals and NaN; the written IVFX
// bytes of three seeded corpora (one large enough to split the seeding
// rounds into blocks) match golden hashes in every mode; and writing a new
// index over a journaled one leaves no journal to replay.
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
#include "obs/metrics.hpp"
#include "test_common.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace {

using namespace wf;
using test::check_pruned_against_oracle;
using test::check_rankings_identical;
using test::IndexOracle;
using test::plain_argmin;
using test::temp_path;
using test::TempIndex;

static_assert(util::kSimdAlignment == 64, "SIMD tiles assume 64-byte rows");

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
    const TempIndex ivf(flat, config, "wf_test_index_exact.wfx");
    CHECK(ivf.build.clusters() == clusters);
    CHECK(ivf.build.size() == flat.size());
    for (std::size_t c = 0; c < ivf.build.clusters(); ++c)
      CHECK(is_aligned(ivf.build.cell(c).data.data()));
    const index::MappedIndex& mapped = *ivf.store;
    CHECK(mapped.pruned());
    IndexOracle(ivf.build).check(mapped);
    std::vector<int> labels;
    for (std::size_t id = 0; id < mapped.n_class_ids(); ++id)
      labels.push_back(mapped.label_of_id(id));
    std::sort(labels.begin(), labels.end());
    CHECK(labels == flat.classes());
    check_rankings_identical(exact_rankings, knn.rank_batch(mapped, queries));
    const std::vector<double> ivf_kth = detector.kth_distances(mapped, queries);
    CHECK(ivf_kth.size() == exact_kth.size());
    for (std::size_t q = 0; q < exact_kth.size(); ++q) CHECK(ivf_kth[q] == exact_kth[q]);
    // The scalar path goes through the same probe plan.
    const auto scalar = knn.rank(mapped, queries.row_span(0));
    CHECK(!scalar.empty() && scalar.front().label == exact_rankings[0].front().label);
    CHECK(scalar.front().distance == exact_rankings[0].front().distance);
  }

  // --- seeded k-means: deterministic, and a function of content only -------
  {
    index::IvfConfig config;
    config.clusters = 5;
    config.probes = 2;
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
    // And so are the files written from the three builds, byte for byte.
    const auto written = [](const index::IvfReferenceStore& build) {
      const std::string file = temp_path("wf_test_index_content.wfx");
      index::write_index_file(file, build);
      const std::string bytes = test::read_file(file);
      std::filesystem::remove(file);
      return bytes;
    };
    const std::string bytes = written(a);
    CHECK(bytes.size() > 104);
    CHECK(written(b) == bytes);
    CHECK(written(c) == bytes);
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
    const TempIndex ivf(base, config, "wf_test_index_recall.wfx");
    std::vector<std::size_t> probed;
    ivf.store->probe_shards(probes.row_span(0), probed);
    CHECK(probed.size() == 8);  // the file's P, and no journal tails
    const auto want = top10_rows(knn, base, probes);
    const auto got = top10_rows(knn, *ivf.store, probes);
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
  index::IvfConfig disk_config;
  disk_config.clusters = 6;
  const TempIndex disk(flat, disk_config, "wf_test_index.wfx");
  {
    const index::MappedIndex& mapped = *disk.store;
    CHECK(mapped.size() == flat.size());
    CHECK(mapped.dim() == dim);
    CHECK(mapped.pruned());
    check_rankings_identical(exact_rankings, knn.rank_batch(mapped, queries));

    // Pruned probes: the probe plan, and a scan of exactly the probed
    // clusters, query by query.
    const std::unique_ptr<index::MappedIndex> mapped2 = disk.reopen(2);
    IndexOracle(disk.build).check_probes(*mapped2, queries, 2);
    check_pruned_against_oracle(*mapped2, knn, queries, {});

    // Depth oracle on every mapped flavour, at k = 0, within and beyond the
    // row count, with a NaN query; a NaN row journaled into a cell sits in
    // the heap of every query at k > n.
    std::vector<float> nan_row(dim, 0.0f);
    nan_row[0] = std::nanf("");
    nn::Matrix odd(queries.rows() + 1, dim);
    for (std::size_t q = 0; q < queries.rows(); ++q) odd.set_row(q, queries.row_span(q));
    odd.set_row(queries.rows(), nan_row);
    const TempIndex with_nan(flat, disk_config, "wf_test_index_nan.wfx");
    index::IndexJournalWriter(with_nan.path).add(nan_row, 700);
    const std::unique_ptr<index::MappedIndex> mapped_nan = with_nan.reopen();
    const std::unique_ptr<index::MappedIndex> mapped_nan2 = with_nan.reopen(2);
    CHECK(mapped_nan->size() == flat.size() + 1);
    // One row left in one cell at P = 1: most queries probe only empty cells,
    // so their heaps stay empty and their rankings are all untouched tail.
    const TempIndex hollow(flat, disk_config, "wf_test_index_hollow.wfx");
    {
      index::IndexJournalWriter journal(hollow.path);
      for (const int label : flat.classes()) journal.remove_class(label);
      journal.add(rows.front().embedding, 7000);
    }
    const std::unique_ptr<index::MappedIndex> hollow1 = hollow.reopen(1);
    CHECK(hollow1->size() == 1 && hollow1->n_class_ids() == 1);
    for (const int k : {0, 1, 15, 1000}) {
      const core::KnnClassifier depth_knn(k);
      const std::vector<const core::ReferenceStore*> stores = {
          &mapped, mapped2.get(), mapped_nan.get(), mapped_nan2.get(), hollow1.get()};
      for (const core::ReferenceStore* store : stores)
        test::check_depth_prefixes(depth_knn, *store, odd);
    }

    // The info reader sees the same shape without touching the data.
    const index::IndexInfo info = index::read_index_info(disk.path);
    CHECK(info.dim == dim);
    CHECK(info.clusters == 6);
    CHECK(info.rows == flat.size());
    CHECK(info.journal_bytes == 0);
  }

  // --- writing over a mapped index leaves the mapping answering -----------
  // A serving process keeps its mapping while `wf index build` replaces the
  // file with a different, smaller index.
  {
    const std::string live_path = temp_path("wf_test_index_live.wfx");
    index::write_index_file(live_path, disk.build);
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

  // --- journal appends and removals replay onto the mapping ----------------
  {
    IndexOracle oracle(disk.build);
    index::IndexJournalWriter journal(disk.path);
    util::Rng fresh(77);
    for (int i = 0; i < 9; ++i) {
      const std::vector<float> e = random_point(fresh, dim);
      const int label = (i < 3) ? 990 : rows[static_cast<std::size_t>(i)].label;
      oracle.add(e, label);
      journal.add(e, label);
    }
    CHECK(std::filesystem::exists(journal.journal_path()));
    const std::unique_ptr<index::MappedIndex> mapped = disk.reopen();
    oracle.check(*mapped);
    check_rankings_identical(knn.rank_batch(oracle.store(), queries),
                             knn.rank_batch(*mapped, queries));
    const index::IndexInfo info = index::read_index_info(disk.path);
    CHECK(info.journal_adds == 9);
    CHECK(info.journal_bytes > 0);

    // A removal replays onto the mapping too (copy-on-write): the open is
    // still a MappedIndex and holds exactly the oracle's rows and ids.
    journal.remove_class(700);
    oracle.remove_class(700);
    // The class of the last add goes too, so the highest live row id falls
    // below next_row_id: compaction must keep the sequence, not restart it.
    journal.remove_class(rows[8].label);
    oracle.remove_class(rows[8].label);
    const std::unique_ptr<index::MappedIndex> reloaded = disk.reopen();
    oracle.check(*reloaded);
    check_rankings_identical(knn.rank_batch(oracle.store(), queries),
                             knn.rank_batch(*reloaded, queries));
    reloaded->set_probes(2);
    oracle.check_probes(*reloaded, queries, 2);
    check_pruned_against_oracle(*reloaded, knn, queries, {});

    // Compaction: rebuild the file, journal gone. A build of the oracle's
    // live rows under their row ids, with the row-id sequence carried over,
    // writes the same file byte for byte.
    const std::size_t compacted = index::rebuild_index_file(disk.path);
    CHECK(compacted == oracle.size());
    CHECK(!std::filesystem::exists(journal.journal_path()));
    CHECK(index::read_index_info(disk.path).next_row_id == oracle.next_row_id());
    const std::string oracle_file = temp_path("wf_test_index_compact_oracle.wfx");
    index::write_index_file(oracle_file, index::IvfReferenceStore(oracle.store(),
                                                                  disk.build.config(),
                                                                  oracle.next_row_id()));
    CHECK(test::read_file(oracle_file) == test::read_file(disk.path));
    std::filesystem::remove(oracle_file);
    check_rankings_identical(knn.rank_batch(oracle.store(), queries),
                             knn.rank_batch(*disk.reopen(), queries));
  }

  // --- P < C against a brute-force scan of exactly the probed clusters -----
  // Journal-added classes carry labels below every base label but the
  // highest class ids, so the untouched tail's label order differs from
  // class-id order; neighbour = 40 exceeds every probed cluster at P = 1,
  // which exercises the pruned-probe clamp.
  {
    index::IvfConfig config;
    config.clusters = 6;
    const TempIndex live(flat, config, "wf_test_index_oracle.wfx");
    IndexOracle oracle(live.build);
    index::IndexJournalWriter journal(live.path);
    const std::vector<int> early_labels = {42, 7, 3};
    util::Rng fresh(4242);
    for (int i = 0; i < 6; ++i) {
      const std::vector<float> e = random_point(fresh, dim);
      const int label = early_labels[static_cast<std::size_t>(i) % early_labels.size()];
      oracle.add(e, label);
      journal.add(e, label);
    }
    std::size_t tails_with_early = 0;
    for (const std::size_t probes : {std::size_t{1}, std::size_t{2}}) {
      const std::unique_ptr<index::MappedIndex> mapped = live.reopen(probes);
      oracle.check(*mapped);
      oracle.check_probes(*mapped, queries, probes);
      CHECK(mapped->label_of_id(mapped->n_class_ids() - 1) < mapped->label_of_id(0));
      tails_with_early += check_pruned_against_oracle(*mapped, knn, queries, early_labels);
    }
    CHECK(tails_with_early > 0);
  }

  // --- a torn journal tail reads as absent ----------------------------------
  // An append cut short by a crash leaves part of its record, or of the
  // journal header. Each cut opens to the state before that record (and
  // counts in index.journal_torn_tails), read_index_info counts without it,
  // and the next writer cuts it off, so a later append opens with its row.
  {
    index::IvfConfig config;
    config.clusters = 4;
    const TempIndex torn(flat, config, "wf_test_index_torn.wfx");
    const std::string journal_path = torn.path + ".journal";
    util::Rng torn_rng(31);
    const std::vector<float> first = random_point(torn_rng, dim);
    const std::vector<float> second = random_point(torn_rng, dim);
    const std::vector<float> later = random_point(torn_rng, dim);
    index::IndexJournalWriter(torn.path).add(first, 991);
    const std::string one_add = test::read_file(journal_path);
    CHECK(one_add.size() == 32 + 29 + 4 * dim);  // header, then one add record
    index::IndexJournalWriter(torn.path).add(second, 993);
    const std::string two_adds = test::read_file(journal_path);
    test::write_file(journal_path, one_add);
    index::IndexJournalWriter(torn.path).remove_class(700);
    const std::string add_remove = test::read_file(journal_path);
    CHECK(add_remove.size() == one_add.size() + 5);

    const obs::Counter& torn_tails = obs::Registry::global().counter("index.journal_torn_tails");
    const auto check_cut = [&](const std::string& bytes, const IndexOracle& before,
                               std::size_t adds) {
      test::write_file(journal_path, bytes);
      const std::uint64_t seen = torn_tails.value();
      before.check(*torn.reopen());
      const index::IndexInfo info = index::read_index_info(torn.path);
      CHECK(info.journal_adds == adds && info.journal_removes == 0);
      CHECK(info.journal_bytes == (adds == 0 ? 0 : one_add.size()));
      IndexOracle after = before;
      {
        index::IndexJournalWriter journal(torn.path);
        CHECK(test::read_file(journal_path).size() == info.journal_bytes);
        journal.add(later, 992);
      }
      after.add(later, 992);
      after.check(*torn.reopen());
      CHECK(torn_tails.value() == seen + 3);  // open, info, writer; not the last open
    };
    const IndexOracle base(torn.build);
    IndexOracle with_first = base;
    with_first.add(first, 991);
    for (std::size_t cut = 1; cut < two_adds.size() - one_add.size(); ++cut)
      check_cut(two_adds.substr(0, one_add.size() + cut), with_first, 1);
    check_cut(add_remove.substr(0, one_add.size() + 1), with_first, 1);
    for (const std::size_t cut : {1, 12, 31}) check_cut(one_add.substr(0, cut), base, 0);
    // An unknown record kind is still an error, even as a lone last byte.
    test::write_file(journal_path, one_add + std::string(1, '\x07'));
    CHECK(test::throws_io_error([&] { torn.reopen(); }));
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
      check_rankings_identical(exact_rankings, knn.rank_batch(*disk.store, queries));
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
    index::write_index_file(stale_path, index::IvfReferenceStore(new_rows, config));
    CHECK(!std::filesystem::exists(stale_path + ".journal"));
    const std::unique_ptr<core::ReferenceStore> reopened = index::open_index(stale_path);
    CHECK(reopened->size() == 100);
    std::vector<int> labels;
    for (std::size_t id = 0; id < reopened->n_class_ids(); ++id)
      labels.push_back(reopened->label_of_id(id));
    std::sort(labels.begin(), labels.end());
    CHECK(labels == new_rows.classes());
    CHECK(std::find(labels.begin(), labels.end(), 990) == labels.end());
    check_rankings_identical(knn.rank_batch(new_rows, queries),
                             knn.rank_batch(*reopened, queries));

    // A different cluster count over a journaled path opens too.
    index::IndexJournalWriter(stale_path).add(random_point(stale_rng, dim), 991);
    config.clusters = 3;
    index::write_index_file(stale_path, index::IvfReferenceStore(new_rows, config));
    const std::unique_ptr<core::ReferenceStore> coarse_open = index::open_index(stale_path);
    CHECK(coarse_open->size() == 100);
    CHECK(index::read_index_info(stale_path).clusters == 3);
    check_rankings_identical(knn.rank_batch(new_rows, queries),
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

  return TEST_MAIN_RESULT();
}
