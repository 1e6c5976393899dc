// index_churn: the million-reference regime, with no netsim and no serve. A
// synthetic clustered-gaussian corpus (as in eval/exp_million.cpp) at the
// model's embedding width is clustered into an IVF index and written to
// disk; the benchmark then opens it through the mmap path, scans it with
// fixed-P rank_batch query batches, appends churn (adds and class removals)
// through the journal, reopens it and compacts it.

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <memory>

#include "common.hpp"
#include "core/embedding_config.hpp"
#include "core/knn.hpp"
#include "core/sharded_reference_set.hpp"
#include "index/ivf.hpp"
#include "index/store.hpp"
#include "phases.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kRefsPerClass = 50;
constexpr double kSpread = 0.35;
constexpr std::uint64_t kCorpusSeed = 70921;
constexpr std::size_t kQueries = 512;       // rows of one rank_batch call
constexpr std::size_t kRecallQueries = 128; // the fixed subset recall@10 is judged on
constexpr std::size_t kExactQueries = 16;   // mapped exact scan vs in-memory scan
constexpr std::size_t kAdds = 4096;         // journal adds per churn cycle
constexpr std::size_t kRemovals = 32;       // journal class removals per churn cycle
constexpr int kK = 40;                      // the model's k
constexpr int kSetupRepeats = 3;
constexpr std::size_t kChurnChunk = 256;  // journal appends per rate sample
constexpr int kOpensPerRound = 20;
constexpr int kReopensPerRound = 3;
constexpr double kScanPerRound_s = 0.5;
constexpr int kTopN = 10;

struct Corpus {
  std::size_t dim = 0;
  std::size_t n_classes = 0;
  wf::core::ShardedReferenceSet refs;
  wf::nn::Matrix queries;
  wf::nn::Matrix adds;            // churn rows, kAdds x dim
  std::vector<int> add_labels;    // never one of the removed classes
  std::vector<int> removed;       // classes the churn removes
  std::size_t removed_rows = 0;   // base rows of the removed classes
};

// The stored corpus is fixed (so the index layout, and with it the work per
// query, is the same for every seed); the seed draws the queries and churn.
Corpus make_corpus(std::size_t n_refs, std::uint64_t seed) {
  Corpus c;
  c.dim = wf::core::EmbeddingConfig{}.embedding_dim;
  c.n_classes = std::max<std::size_t>(kTopN + 1, n_refs / kRefsPerClass);
  wf::util::Rng rng(kCorpusSeed + n_refs);
  std::vector<float> centres(c.n_classes * c.dim);
  for (float& v : centres) v = static_cast<float>(rng.normal());
  std::vector<float> row(c.dim);
  const auto draw = [&](std::size_t cls) {
    for (std::size_t d = 0; d < c.dim; ++d)
      row[d] = centres[cls * c.dim + d] + static_cast<float>(rng.normal(0.0, kSpread));
  };
  c.refs = wf::core::ShardedReferenceSet(c.dim, 4);
  for (std::size_t i = 0; i < n_refs; ++i) {
    draw(i % c.n_classes);
    c.refs.add(row, static_cast<int>(i % c.n_classes));
  }
  rng = wf::util::Rng(seed * 0x9e3779b97f4a7c15ULL + kCorpusSeed);
  c.queries = wf::nn::Matrix(kQueries, c.dim);
  for (std::size_t q = 0; q < kQueries; ++q) {
    draw(rng.index(c.n_classes));
    c.queries.set_row(q, row);
  }
  // Churn: remove kRemovals distinct classes, add rows to the others.
  std::vector<int> all(c.n_classes);
  for (std::size_t i = 0; i < c.n_classes; ++i) all[i] = static_cast<int>(i);
  for (std::size_t i = 0; i < kRemovals && i + 1 < all.size(); ++i) {
    std::swap(all[i], all[i + rng.index(all.size() - i)]);
    c.removed.push_back(all[i]);
  }
  for (const int cls : c.removed)
    c.removed_rows += n_refs / c.n_classes + (static_cast<std::size_t>(cls) < n_refs % c.n_classes);
  c.adds = wf::nn::Matrix(kAdds, c.dim);
  for (std::size_t i = 0; i < kAdds; ++i) {
    const int cls = all[c.removed.size() + rng.index(all.size() - c.removed.size())];
    draw(static_cast<std::size_t>(cls));
    c.adds.set_row(i, row);
    c.add_labels.push_back(cls);
  }
  return c;
}

// Each query's kTopN nearest reference rows (global insertion ids), as in
// eval/exp_million.cpp: a single-slice scan holds every shard's k best.
std::vector<std::vector<std::uint64_t>> top_rows(const wf::core::ReferenceStore& store,
                                                 const wf::nn::Matrix& queries) {
  const wf::core::KnnClassifier knn(kTopN);
  const wf::core::SliceScan scan = knn.scan_slice(store, queries, 0, 1);
  std::vector<std::vector<std::uint64_t>> top(scan.candidates.size());
  for (std::size_t q = 0; q < scan.candidates.size(); ++q) {
    std::vector<wf::core::Candidate> candidates = scan.candidates[q];
    std::sort(candidates.begin(), candidates.end());
    for (std::size_t i = 0; i < std::min<std::size_t>(kTopN, candidates.size()); ++i)
      top[q].push_back(candidates[i].second >> wf::core::kCandidateClassBits);
    std::sort(top[q].begin(), top[q].end());
  }
  return top;
}

double recall(const std::vector<std::vector<std::uint64_t>>& exact,
              const std::vector<std::vector<std::uint64_t>>& pruned) {
  double sum = 0.0;
  for (std::size_t q = 0; q < exact.size(); ++q) {
    std::vector<std::uint64_t> common;
    std::set_intersection(exact[q].begin(), exact[q].end(), pruned[q].begin(), pruned[q].end(),
                          std::back_inserter(common));
    sum += exact[q].empty() ? 1.0
                            : static_cast<double>(common.size()) /
                                  static_cast<double>(exact[q].size());
  }
  return exact.empty() ? 1.0 : sum / static_cast<double>(exact.size());
}

bool same_rankings(const std::vector<std::vector<wf::core::RankedLabel>>& a,
                   const std::vector<std::vector<wf::core::RankedLabel>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (std::size_t i = 0; i < a[q].size(); ++i)
      if (a[q][i].label != b[q][i].label || a[q][i].votes != b[q][i].votes ||
          a[q][i].distance != b[q][i].distance)
        return false;
  }
  return true;
}

wf::nn::Matrix first_rows(const wf::nn::Matrix& m, std::size_t n) {
  wf::nn::Matrix out(std::min(n, m.rows()), m.cols());
  for (std::size_t r = 0; r < out.rows(); ++r) out.set_row(r, m.row_span(r));
  return out;
}

bool is_mapped(const wf::core::ReferenceStore& store) {
  return dynamic_cast<const wf::index::MappedIndex*>(&store) != nullptr;
}

}  // namespace

void run_index_churn(const PhaseOptions& options, Report& report) {
  const Scale& scale = options.scale;
  const Corpus corpus = make_corpus(scale.index_rows, options.seed);
  const std::string base = options.work_dir + "/index.ivfx";
  const std::string pristine = options.work_dir + "/index.pristine";
  // Removes the phase's index files however the phase ends.
  struct ScratchFiles {
    std::vector<std::string> paths;
    ~ScratchFiles() {
      std::error_code ec;
      for (const std::string& path : paths) fs::remove(path, ec);
    }
  } const scratch{{base, base + ".journal", base + ".tmp", pristine}};

  // Setup: cluster the corpus and write the base file, several times.
  SpanLog::instance().set_enabled(options.trace);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    wf::index::IvfConfig config;
    config.clusters = scale.index_clusters;
    config.probes = scale.index_probes;
    std::unique_ptr<wf::index::IvfReferenceStore> ivf;
    {
      ScopedSpan span("index.build");
      ivf = std::make_unique<wf::index::IvfReferenceStore>(corpus.refs, config);
    }
    ScopedSpan span("index.write");
    wf::index::write_index_file(base, *ivf);
    setup_s.push_back(seconds_since(start));
  }
  report.add("setup_s", median(setup_s), "s");
  fs::copy_file(base, pristine, fs::copy_options::overwrite_existing);
  SpanLog::instance().set_enabled(false);

  // Correctness: the mapped exact scan equals the in-memory exact scan, and
  // recall@10 of the fixed-P scan against the exact one.
  const wf::core::KnnClassifier knn(kK);
  const std::unique_ptr<wf::core::ReferenceStore> store =
      wf::index::open_index(base, scale.index_probes);
  auto* mapped = dynamic_cast<wf::index::MappedIndex*>(store.get());
  report.check(mapped != nullptr, "clean base file did not open as a MappedIndex");
  if (mapped == nullptr) return;
  {
    const wf::nn::Matrix probe = first_rows(corpus.queries, kExactQueries);
    mapped->set_probes(0);
    report.check(same_rankings(knn.rank_batch(*mapped, probe), knn.rank_batch(corpus.refs, probe)),
                 "mapped exact scan differs from the in-memory scan");
    const wf::nn::Matrix subset = first_rows(corpus.queries, kRecallQueries);
    const auto exact = top_rows(*mapped, subset);
    mapped->set_probes(scale.index_probes);
    report.add("recall_at_10", recall(exact, top_rows(*mapped, subset)), "ratio");
  }

  // Fixed-P rank_batch scans through the mapping; each batch's rate is one
  // sample.
  std::vector<double> batch_qps;
  const auto scan_for = [&](double seconds, bool traced) {
    SpanLog::instance().set_enabled(traced);
    std::size_t queries = 0;
    const Clock::time_point start = Clock::now();
    do {
      const Clock::time_point batch_start = Clock::now();
      ScopedSpan span("core.rank_batch");
      const auto rankings = knn.rank_batch(*mapped, corpus.queries);
      batch_qps.push_back(static_cast<double>(corpus.queries.rows()) / seconds_since(batch_start));
      report.attempt(corpus.queries.rows());
      if (rankings.size() != corpus.queries.rows()) report.fail(corpus.queries.rows());
      queries += corpus.queries.rows();
    } while (seconds_since(start) < seconds);
    SpanLog::instance().set_enabled(false);
    return static_cast<double>(queries) / seconds_since(start);
  };
  (void)scan_for(1.0, false);  // warm the page cache, the pool and the vCPUs
  batch_qps.clear();

  // Opens of the clean base file: the O(1) mmap path.
  std::vector<double> open_ms;
  const auto open_clean = [&] {
    const Clock::time_point start = Clock::now();
    const std::unique_ptr<wf::core::ReferenceStore> opened = wf::index::open_index(base);
    open_ms.push_back(seconds_since(start) * 1e3);
    report.attempt();
    if (!is_mapped(*opened)) report.fail();
  };

  // Churn cycles: restore the clean base, append adds + class removals to
  // the journal, reopen (today a full in-memory load), compact.
  std::vector<double> churn_rate, reopen_ms, compact_s;
  std::size_t fallback_opens = 0;
  double journal_bytes = 0.0;
  const std::size_t expected_rows = corpus.refs.size() + kAdds - corpus.removed_rows;
  const auto churn_cycle = [&] {
    fs::copy_file(pristine, base, fs::copy_options::overwrite_existing);
    {
      // Each chunk of kChurnChunk appends is one rate sample.
      wf::index::IndexJournalWriter journal(base);
      Clock::time_point chunk_start = Clock::now();
      for (std::size_t i = 0; i < kAdds; ++i) {
        {
          ScopedSpan span("index.journal_append");
          journal.add(corpus.adds.row_span(i), corpus.add_labels[i]);
        }
        if ((i + 1) % kChurnChunk == 0) {
          churn_rate.push_back(static_cast<double>(kChurnChunk) / seconds_since(chunk_start));
          chunk_start = Clock::now();
        }
      }
      chunk_start = Clock::now();
      for (const int cls : corpus.removed) {
        ScopedSpan span("index.journal_append");
        journal.remove_class(cls);
      }
      churn_rate.push_back(static_cast<double>(corpus.removed.size()) / seconds_since(chunk_start));
      journal_bytes = static_cast<double>(fs::file_size(journal.journal_path()));
      report.attempt(kAdds + corpus.removed.size());
    }
    for (int i = 0; i < kReopensPerRound; ++i) {
      const Clock::time_point start = Clock::now();
      const std::unique_ptr<wf::core::ReferenceStore> churned =
          wf::index::open_index(base, scale.index_probes);
      reopen_ms.push_back(seconds_since(start) * 1e3);
      if (!is_mapped(*churned)) ++fallback_opens;
      report.attempt();
      if (churned->size() != expected_rows) report.fail();
    }
    {
      const Clock::time_point start = Clock::now();
      const std::size_t rows = wf::index::rebuild_index_file(base);
      compact_s.push_back(seconds_since(start));
      report.attempt();
      if (rows != expected_rows) report.fail();
    }
  };

  if (!options.trace) {
    // Rounds interleave every measurement across the phase, so a slow
    // stretch of a shared machine lands in a few samples of each metric
    // rather than in all samples of one.
    std::size_t rounds = 0;
    const Clock::time_point start = Clock::now();
    do {
      for (int i = 0; i < kOpensPerRound; ++i) open_clean();
      (void)scan_for(kScanPerRound_s, false);
      churn_cycle();
      ++rounds;
    } while (seconds_since(start) + seconds_since(start) / static_cast<double>(rounds) <=
             options.seconds);
    const std::unique_ptr<wf::core::ReferenceStore> compacted = wf::index::open_index(base);
    report.check(is_mapped(*compacted) && compacted->size() == expected_rows,
                 "compacted index does not reopen as a MappedIndex of the churned rows");
    report.add("index_open_ms", quick_time(open_ms), "ms");
    report.add("scan_qps", quick_rate(batch_qps), "1/s");
    report.add("churn_rows_per_s", quick_rate(churn_rate), "1/s");
    report.add("reopen_churned_ms", quick_time(reopen_ms), "ms");
    report.add("compact_s", quick_time(compact_s), "s");
    std::fprintf(stderr,
                 "index_churn: rows=%zu clusters=%zu probes=%zu rounds=%zu fallback_opens=%zu\n",
                 corpus.refs.size(), scale.index_clusters, scale.index_probes, rounds,
                 fallback_opens);
    return;
  }

  // The traced run: clean opens, scans alternately untraced and traced,
  // then one traced churn cycle, then the layer probes.
  for (int i = 0; i < kOpensPerRound; ++i) open_clean();
  report.add("index_open_ms", quick_time(open_ms), "ms");
  double plain_qps = scan_for(kScanPerRound_s, false);
  ObsDelta obs;
  const std::size_t mark = SpanLog::instance().size();
  double traced_qps = scan_for(kScanPerRound_s, true);
  obs.finish();
  plain_qps += scan_for(kScanPerRound_s, false);
  traced_qps += scan_for(kScanPerRound_s, true);
  const SpanLog& log = SpanLog::instance();
  const double scanned_queries = obs.counter("index.probes_total");
  report.add("obs.trace_overhead_pct.index", 100.0 * (plain_qps / traced_qps - 1.0), "%");
  report.add("core.rank_batch_ms.index", median(log.durations("core.rank_batch", mark)), "ms");
  const double rows_per_query = obs.counter("index.rows_scanned") / scanned_queries;
  report.add("index.rows_scanned_per_query", rows_per_query, "rows");
  report.add("index.clusters_scanned_per_query",
             obs.counter("index.clusters_scanned") / scanned_queries, "clusters");
  report.add("index.scan_fraction", rows_per_query / static_cast<double>(mapped->size()), "ratio");
  report.add("nn.dot_flops_per_query.index", 2.0 * static_cast<double>(corpus.dim) * rows_per_query,
             "flop");
  report.add("nn.dot_ns_per_row.index", dot_ns_per_row(*mapped, corpus.queries.row_span(0)), "ns");

  SpanLog::instance().set_enabled(true);
  const std::size_t churn_mark = SpanLog::instance().size();
  churn_cycle();
  SpanLog::instance().set_enabled(false);
  report.add("index.journal_append_us",
             1e3 * median(log.durations("index.journal_append", churn_mark)), "us");
  report.add("churn_rows_per_s", quick_rate(churn_rate), "1/s");
  report.add("index.journal_bytes", journal_bytes, "bytes");
  report.add("index.fallback_opens", static_cast<double>(fallback_opens), "count");
  report.add("index.build_s", median(log.durations("index.build")) / 1e3, "s");
  report.add("index.write_ms", median(log.durations("index.write")), "ms");
}

}  // namespace perfbench
