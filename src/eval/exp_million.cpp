#include "eval/exp_million.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "core/knn.hpp"
#include "core/sharded_reference_set.hpp"
#include "eval/scenario.hpp"
#include "index/ivf.hpp"
#include "index/store.hpp"
#include "nn/matrix.hpp"
#include "nn/simd.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace wf::eval {
namespace {

// Synthetic corpus geometry: embeddings live near per-class gaussian
// centres, like the trained model's output but at any scale. kSpread keeps
// classes separable enough that recall@10 is a meaningful knob (too much
// overlap and even the exact scan's top-10 is arbitrary among near-ties).
constexpr std::size_t kDim = 64;
constexpr std::size_t kRefsPerClass = 50;
constexpr double kSpread = 0.35;
constexpr int kTopN = 10;
constexpr std::uint64_t kCorpusSeed = 70921;

struct Corpus {
  core::ShardedReferenceSet refs;
  nn::Matrix queries;
};

Corpus make_corpus(std::size_t n_refs, std::size_t n_queries) {
  const std::size_t n_classes = std::max<std::size_t>(kTopN + 1, n_refs / kRefsPerClass);
  util::Rng rng(kCorpusSeed + n_refs);
  std::vector<float> centres(n_classes * kDim);
  for (float& v : centres) v = static_cast<float>(rng.normal());

  Corpus corpus{core::ShardedReferenceSet(kDim, 4), nn::Matrix(n_queries, kDim)};
  std::vector<float> row(kDim);
  for (std::size_t i = 0; i < n_refs; ++i) {
    const std::size_t c = i % n_classes;
    for (std::size_t d = 0; d < kDim; ++d)
      row[d] = centres[c * kDim + d] + static_cast<float>(rng.normal(0.0, kSpread));
    corpus.refs.add(row, static_cast<int>(c));
  }
  for (std::size_t q = 0; q < n_queries; ++q) {
    const std::size_t c = q % n_classes;
    for (std::size_t d = 0; d < kDim; ++d)
      row[d] = centres[c * kDim + d] + static_cast<float>(rng.normal(0.0, kSpread));
    corpus.queries.set_row(q, row);
  }
  return corpus;
}

// Each query's 10 nearest reference rows (global insertion ids), extracted
// from the scan's candidate lists: a single-slice scan_slice holds the
// store's k best, so the global top-10 is a sort away. Row ids are the
// store's insertion ids, which the IVF index preserves — the exact and the
// pruned scan speak the same id space.
std::vector<std::vector<std::uint64_t>> top_rows(const core::KnnClassifier& knn,
                                                 const core::ReferenceStore& store,
                                                 const nn::Matrix& queries) {
  const core::SliceScan scan = knn.scan_slice(store, queries, 0, 1);
  std::vector<std::vector<std::uint64_t>> top(scan.candidates.size());
  for (std::size_t q = 0; q < scan.candidates.size(); ++q) {
    std::vector<core::Candidate> candidates = scan.candidates[q];
    std::sort(candidates.begin(), candidates.end());
    const std::size_t n = std::min<std::size_t>(kTopN, candidates.size());
    top[q].reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      top[q].push_back(candidates[i].second >> core::kCandidateClassBits);
  }
  return top;
}

// Standard ANN recall@10: the mean fraction of each query's true 10 nearest
// rows that the pruned scan retains.
double recall_at_10(const std::vector<std::vector<std::uint64_t>>& exact,
                    const std::vector<std::vector<std::uint64_t>>& pruned) {
  if (exact.empty()) return 1.0;
  double sum = 0.0;
  for (std::size_t q = 0; q < exact.size(); ++q) {
    std::vector<std::uint64_t> want = exact[q];
    std::vector<std::uint64_t> got = pruned[q];
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    std::vector<std::uint64_t> common;
    std::set_intersection(want.begin(), want.end(), got.begin(), got.end(),
                          std::back_inserter(common));
    sum += want.empty() ? 1.0
                        : static_cast<double>(common.size()) / static_cast<double>(want.size());
  }
  return sum / static_cast<double>(exact.size());
}

// Queries per second of rank_batch over `store`, scanning repeatedly until
// the run is long enough for a stable rate. A perf number, not part of the
// bit-identity surface — the rankings themselves are mode-invariant.
double measure_qps(const core::KnnClassifier& knn, const core::ReferenceStore& store,
                   const nn::Matrix& queries, double min_seconds) {
  std::size_t ranked = 0;
  const util::Stopwatch watch;
  do {
    (void)knn.rank_batch(store, queries);
    ranked += queries.rows();
  } while (watch.seconds() < min_seconds);
  return static_cast<double>(ranked) / watch.seconds();
}

std::vector<std::size_t> probe_sweep(std::size_t clusters) {
  std::vector<std::size_t> probes{clusters, std::max<std::size_t>(1, clusters / 8),
                                  std::max<std::size_t>(1, clusters / 32)};
  std::sort(probes.begin(), probes.end(), std::greater<>());
  probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
  return probes;
}

}  // namespace

util::Table run_million_experiment() {
  const bool smoke = util::Env::smoke();
  const std::vector<std::size_t> ref_counts =
      smoke ? std::vector<std::size_t>{10000} : std::vector<std::size_t>{100000, 1000000};
  const std::size_t n_queries = smoke ? 200 : 500;
  const std::vector<std::size_t> cluster_counts =
      smoke ? std::vector<std::size_t>{16, 64} : std::vector<std::size_t>{256, 1024};
  const double min_seconds = smoke ? 0.05 : 0.5;
  const core::KnnClassifier knn(16);
  const std::vector<nn::SimdMode> modes = nn::supported_simd_modes();
  const nn::SimdMode previous_mode = nn::simd_mode();

  util::Table table({"Refs", "Clusters", "Probes", "Simd", "QPS", "Speedup", "Recall10"});
  for (const std::size_t n_refs : ref_counts) {
    util::log_info() << "perf_million: building a " << n_refs
                     << "-reference clustered-gaussian corpus (dim " << kDim << ")";
    const Corpus corpus = make_corpus(n_refs, n_queries);
    const std::vector<std::vector<std::uint64_t>> exact_top =
        top_rows(knn, corpus.refs, corpus.queries);

    // Exact-scan baseline, one row per SIMD mode (Clusters/Probes = 0).
    std::vector<double> exact_qps(modes.size(), 0.0);
    for (std::size_t m = 0; m < modes.size(); ++m) {
      nn::set_simd_mode(modes[m]);
      exact_qps[m] = measure_qps(knn, corpus.refs, corpus.queries, min_seconds);
      table.add_row({std::to_string(n_refs), "0", "0", nn::simd_mode_name(modes[m]),
                     util::Table::num(exact_qps[m], 1), util::Table::num(1.0, 2),
                     util::Table::num(1.0, 4)});
    }

    for (const std::size_t clusters : cluster_counts) {
      index::IvfConfig config;
      config.clusters = clusters;
      util::log_info() << "perf_million: k-means into " << clusters << " clusters";
      // The sweep queries the index as it serves: written, then mapped.
      const std::string path = results_dir() + "/perf_million_" + std::to_string(n_refs) + "_" +
                               std::to_string(clusters) + ".wfx";
      index::write_index_file(path, index::IvfReferenceStore(corpus.refs, config));
      index::MappedIndex ivf(path);
      for (const std::size_t probes : probe_sweep(clusters)) {
        ivf.set_probes(probes);
        const double recall = recall_at_10(exact_top, top_rows(knn, ivf, corpus.queries));
        for (std::size_t m = 0; m < modes.size(); ++m) {
          nn::set_simd_mode(modes[m]);
          const double qps = measure_qps(knn, ivf, corpus.queries, min_seconds);
          table.add_row({std::to_string(n_refs), std::to_string(clusters),
                         std::to_string(probes), nn::simd_mode_name(modes[m]),
                         util::Table::num(qps, 1), util::Table::num(qps / exact_qps[m], 2),
                         util::Table::num(recall, 4)});
        }
      }
      std::filesystem::remove(path);
    }
  }
  nn::set_simd_mode(previous_mode);

  table.write_csv(results_dir() + "/perf_million.csv");
  return table;
}

}  // namespace wf::eval
