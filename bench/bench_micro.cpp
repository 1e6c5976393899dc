// Component micro-benchmarks (google-benchmark): simulator throughput,
// Fig. 4 encoding, embedding forward pass, contrastive training (one step
// from a fresh model, and steady-state steps),
// SIMD dot kernels and the distance GEMM, k-NN query (scalar, batched,
// every class touched, IVF-pruned and the adaptive pass's two-query probe),
// the IVF build,
// random-forest prediction, FL padding and the parallel crawler.
#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "baselines/features.hpp"
#include "baselines/random_forest.hpp"
#include "core/adaptive.hpp"
#include "data/pairs.hpp"
#include "eval/scenario.hpp"
#include "index/ivf.hpp"
#include "index/store.hpp"
#include "nn/matrix.hpp"
#include "nn/simd.hpp"
#include "trace/defense.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace wf;

const netsim::Website& wiki_site() {
  static const netsim::Website site = [] {
    netsim::WikiSiteConfig c;
    c.n_pages = 32;
    c.seed = 7;
    return netsim::make_wiki_site(c);
  }();
  return site;
}

const netsim::ServerFarm& wiki_farm() {
  static const netsim::ServerFarm farm = netsim::ServerFarm::for_wiki();
  return farm;
}

const data::Dataset& micro_dataset() {
  static const data::Dataset dataset = [] {
    data::DatasetBuildOptions opt;
    opt.samples_per_class = 12;
    opt.seed = 99;
    return data::build_dataset(wiki_site(), wiki_farm(), {}, opt);
  }();
  return dataset;
}

core::EmbeddingModel& micro_model() {
  static core::EmbeddingModel model = [] {
    core::EmbeddingConfig c;
    c.train_iterations = 60;  // just enough to initialize sensible weights
    core::EmbeddingModel m(c);
    data::PairGenerator pairs(micro_dataset(), data::PairStrategy::kRandom, 3);
    m.train(pairs);
    return m;
  }();
  return model;
}

void BM_LoadPage(benchmark::State& state) {
  util::Rng rng(1);
  const netsim::BrowserConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(netsim::load_page(wiki_site(), wiki_farm(), 3, cfg, rng));
  }
}
BENCHMARK(BM_LoadPage);

void BM_EncodeCapture(benchmark::State& state) {
  util::Rng rng(2);
  const netsim::BrowserConfig cfg;
  const netsim::PacketCapture capture = netsim::load_page(wiki_site(), wiki_farm(), 3, cfg, rng);
  const trace::SequenceOptions opt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::encode_capture(capture, opt));
  }
}
BENCHMARK(BM_EncodeCapture);

void BM_KfpFeatures(benchmark::State& state) {
  util::Rng rng(3);
  const netsim::BrowserConfig cfg;
  const netsim::PacketCapture capture = netsim::load_page(wiki_site(), wiki_farm(), 3, cfg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::extract_kfp_features(capture));
  }
}
BENCHMARK(BM_KfpFeatures);

void BM_EmbedBatch(benchmark::State& state) {
  core::EmbeddingModel& model = micro_model();
  const nn::Matrix batch = micro_dataset().to_matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.embed(batch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.rows()));
}
BENCHMARK(BM_EmbedBatch);

void BM_ContrastiveTrainStep(benchmark::State& state) {
  core::EmbeddingConfig c;
  c.train_iterations = 1;
  data::PairGenerator pairs(micro_dataset(), data::PairStrategy::kRandom, 5);
  for (auto _ : state) {
    // Fresh model per iteration (outside the timed region) so every timed
    // step runs from identical weights and optimizer state.
    state.PauseTiming();
    core::EmbeddingModel model(c);
    state.ResumeTiming();
    model.train(pairs);  // exactly one optimizer step per call
  }
}
BENCHMARK(BM_ContrastiveTrainStep);

// Steady-state training: a model warmed by one round of kTrainSteps steps
// runs kTrainSteps more per iteration (default shape, 64 rows a step).
// Items are optimizer steps. Every GEMM of such a step runs on the calling
// thread, so the cost should not depend on WF_THREADS.
void BM_ContrastiveTrainSteps(benchmark::State& state) {
  constexpr int kTrainSteps = 25;
  core::EmbeddingConfig c;
  c.train_iterations = kTrainSteps;
  core::EmbeddingModel model(c);
  data::PairGenerator pairs(micro_dataset(), data::PairStrategy::kRandom, 5);
  model.train(pairs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.train(pairs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kTrainSteps);
}
BENCHMARK(BM_ContrastiveTrainSteps)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_KnnQuery(benchmark::State& state) {
  core::EmbeddingModel& model = micro_model();
  core::ShardedReferenceSet refs(model.config().embedding_dim);
  refs.add_all(model.embed_dataset(micro_dataset()), micro_dataset().labels_of());
  const core::KnnClassifier knn(50);
  const nn::Matrix q = model.embed_dataset(micro_dataset());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.rank(refs, q.row_span(i % q.rows())));
    ++i;
  }
}
BENCHMARK(BM_KnnQuery);

std::vector<float> random_unit_row(util::Rng& rng, std::size_t dim) {
  std::vector<float> v(dim);
  double norm = 0.0;
  for (float& x : v) {
    x = static_cast<float>(rng.normal());
    norm += static_cast<double>(x) * x;
  }
  norm = std::sqrt(norm);
  for (float& x : v) x = static_cast<float>(x / norm);
  return v;
}

nn::Matrix random_unit_queries(std::size_t rows, std::size_t dim, util::Rng& rng) {
  nn::Matrix queries(rows, dim);
  for (std::size_t q = 0; q < rows; ++q) queries.set_row(q, random_unit_row(rng, dim));
  return queries;
}

// Synthetic unit-sphere reference set, partitioned round-robin into
// `shards` shards: the k-NN scaling benchmarks need reference counts far
// beyond what the micro crawl produces.
core::ShardedReferenceSet synthetic_refs(std::size_t n, std::size_t dim, util::Rng& rng,
                                         std::size_t shards = 1, std::size_t classes = 100) {
  core::ShardedReferenceSet refs(dim, shards);
  for (std::size_t i = 0; i < n; ++i)
    refs.add(random_unit_row(rng, dim), static_cast<int>(i % classes));
  return refs;
}

// Batched k-NN ranking at 1k/10k references (the ‖a‖²+‖b‖²−2a·b GEMM path).
void BM_KnnQueryBatch(benchmark::State& state) {
  util::Rng rng(17);
  const std::size_t dim = 32;
  const core::ShardedReferenceSet refs =
      synthetic_refs(static_cast<std::size_t>(state.range(0)), dim, rng);
  const core::KnnClassifier knn(50);
  const nn::Matrix queries = random_unit_queries(256, dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.rank_batch(refs, queries));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.rows()));
}
BENCHMARK(BM_KnnQueryBatch)->Arg(1000)->Arg(10000);

// The retarget-eval shape: 1,000 classes of 20 rows (dim 32, one shard),
// k = 40, 512 queries per rank_batch. The scan is exhaustive, so every
// query touches every class and its finalize orders ~1,000 classes, a
// share of the query cost BM_KnnQueryBatch's 100 classes never reach.
void BM_KnnQueryBatchAllTouched(benchmark::State& state) {
  util::Rng rng(29);
  const std::size_t dim = 32;
  const core::ShardedReferenceSet refs = synthetic_refs(20000, dim, rng, 1, 1000);
  const core::KnnClassifier knn(40);
  const nn::Matrix queries = random_unit_queries(512, dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.rank_batch(refs, queries));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.rows()));
}
BENCHMARK(BM_KnnQueryBatchAllTouched)->Unit(benchmark::kMillisecond);

// Batched dataset embedding at 1k/10k samples (one GEMM per layer).
void BM_EmbedDatasetBatch(benchmark::State& state) {
  core::EmbeddingModel& model = micro_model();
  util::Rng rng(19);
  nn::Matrix batch(static_cast<std::size_t>(state.range(0)), model.config().input_dim());
  for (std::size_t i = 0; i < batch.rows(); ++i)
    for (std::size_t j = 0; j < batch.cols(); ++j)
      batch(i, j) = static_cast<float>(rng.uniform(0.0, 2.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.embed(batch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.rows()));
}
BENCHMARK(BM_EmbedDatasetBatch)->Arg(1000)->Arg(10000);

// Sharded batched k-NN at 100k references (the §IV scaling step past one
// pool): per-shard GEMM tiles folded into one candidate heap per query.
// Per-shard work is an even split of the unsharded scan, so the shard
// count costs only the extra, smaller GEMMs; on a single core it measures
// that overhead.
void BM_KnnQueryBatchSharded(benchmark::State& state) {
  util::Rng rng(17);
  const std::size_t dim = 32;
  const core::ShardedReferenceSet refs =
      synthetic_refs(static_cast<std::size_t>(state.range(0)), dim, rng,
                     static_cast<std::size_t>(state.range(1)));
  const core::KnnClassifier knn(50);
  const nn::Matrix queries = random_unit_queries(256, dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.rank_batch(refs, queries));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.rows()));
}
BENCHMARK(BM_KnnQueryBatchSharded)
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({100000, 8});

// IVF-pruned batched k-NN at the index_churn scale: 5,242 classes of 50
// clustered rows (262,100 references, dim 32) in C = 512 clusters probed at
// P = 16, k = 40, 512 queries per rank_batch. Each query scans ~11k rows, so
// the per-query cost is the probe, the cluster GEMMs, the fused k-heap
// visitor and the sparse per-class finalize, not the 5,242-class space. The
// index is queried as it serves: written to a temp file and mapped (the
// mapping outlives the file).
struct PrunedCorpus {
  std::unique_ptr<index::MappedIndex> store;
  nn::Matrix queries;
};

const PrunedCorpus& pruned_corpus() {
  static const PrunedCorpus corpus = [] {
    constexpr std::size_t kClasses = 5242, kPerClass = 50, kDim = 32, kQueries = 512;
    util::Rng rng(70921);
    std::vector<float> centres(kClasses * kDim);
    for (float& v : centres) v = static_cast<float>(rng.normal());
    std::vector<float> row(kDim);
    const auto draw = [&](std::size_t cls) {
      for (std::size_t d = 0; d < kDim; ++d)
        row[d] = centres[cls * kDim + d] + static_cast<float>(rng.normal(0.0, 0.35));
    };
    core::ShardedReferenceSet refs(kDim, 4);
    for (std::size_t i = 0; i < kClasses * kPerClass; ++i) {
      draw(i % kClasses);
      refs.add(row, static_cast<int>(i % kClasses));
    }
    index::IvfConfig config;
    config.clusters = 512;
    config.probes = 16;
    const std::string path = (std::filesystem::temp_directory_path() /
                              ("wf_bench_pruned_" + std::to_string(::getpid()) + ".wfx"))
                                 .string();
    index::write_index_file(path, index::IvfReferenceStore(refs, config));
    PrunedCorpus c{std::make_unique<index::MappedIndex>(path), nn::Matrix(kQueries, kDim)};
    std::filesystem::remove(path);
    for (std::size_t q = 0; q < kQueries; ++q) {
      draw(rng.index(kClasses));
      c.queries.set_row(q, row);
    }
    return c;
  }();
  return corpus;
}

void BM_KnnQueryBatchPruned(benchmark::State& state) {
  const PrunedCorpus& corpus = pruned_corpus();
  const core::KnnClassifier knn(40);
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.rank_batch(*corpus.store, corpus.queries));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(corpus.queries.rows()));
}
BENCHMARK(BM_KnnQueryBatchPruned)->Unit(benchmark::kMillisecond);

// The IVF build (k-means++ seeding, Lloyd iterations, final assignment and
// cell fill) of 65,536 clustered rows (1,024 classes, dim 32) into C = 256
// clusters, as `wf index build` and every compaction run it. Items are rows.
void BM_IvfBuild(benchmark::State& state) {
  constexpr std::size_t kClasses = 1024, kPerClass = 64, kDim = 32;
  util::Rng rng(26);
  std::vector<float> centres(kClasses * kDim);
  for (float& v : centres) v = static_cast<float>(rng.normal());
  std::vector<float> row(kDim);
  core::ShardedReferenceSet refs(kDim, 4);
  for (std::size_t i = 0; i < kClasses * kPerClass; ++i) {
    const std::size_t cls = i % kClasses;
    for (std::size_t d = 0; d < kDim; ++d)
      row[d] = centres[cls * kDim + d] + static_cast<float>(rng.normal(0.0, 0.35));
    refs.add(row, static_cast<int>(cls));
  }
  index::IvfConfig config;
  config.clusters = 256;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index::IvfReferenceStore(refs, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(refs.size()));
}
BENCHMARK(BM_IvfBuild)->UseRealTime()->Unit(benchmark::kMillisecond);

// Scalar k-NN query at 100k references: rank() is a one-row rank_batch,
// whose one query tile is split into shard groups spread across the pool
// (at most one group per shard, so S = 1 runs on the calling thread). Live
// serving batches through fingerprint_batch; this is the per-call latency
// of the single-trace API.
void BM_KnnQueryScalarSharded(benchmark::State& state) {
  util::Rng rng(17);
  const std::size_t dim = 32;
  const core::ShardedReferenceSet refs =
      synthetic_refs(static_cast<std::size_t>(state.range(0)), dim, rng,
                     static_cast<std::size_t>(state.range(1)));
  const core::KnnClassifier knn(50);
  const std::vector<float> query = random_unit_row(rng, dim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.rank(refs, query));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KnnQueryScalarSharded)
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({100000, 8});

// One probe of the adaptive pass: probe_class_accuracy ranks a class's two
// live loads to depth 1 (k = 40, 4 shards). Args: reference rows, classes —
// the dram (20,000 x 1,000) and cache (5,000 x 250) retarget stores. One
// query tile: the larger store splits it into shard groups across the pool,
// the smaller is under kGroupPairs per group and runs on the calling thread.
void BM_KnnProbeSmallBatch(benchmark::State& state) {
  util::Rng rng(17);
  const std::size_t dim = 32;
  const core::ShardedReferenceSet refs =
      synthetic_refs(static_cast<std::size_t>(state.range(0)), dim, rng, 4,
                     static_cast<std::size_t>(state.range(1)));
  const core::KnnClassifier knn(40);
  const nn::Matrix queries = random_unit_queries(2, dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.rank_batch(refs, queries, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.rows()));
}
BENCHMARK(BM_KnnProbeSmallBatch)
    ->Args({20000, 1000})
    ->Args({5000, 250})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// The hot dot-product kernel under each SIMD mode the machine supports
// (wf::nn runtime dispatch): identical eight-lane operation order, so the
// modes differ in speed only — the throughput ratio here is the entire
// WF_SIMD win. Skipped (not failed) for modes this CPU cannot run.
void BM_SimdDot(benchmark::State& state) {
  const auto mode = static_cast<nn::SimdMode>(state.range(0));
  if (!nn::simd_supported(mode)) {
    state.SkipWithError("SIMD mode not supported on this CPU");
    return;
  }
  const std::size_t dim = static_cast<std::size_t>(state.range(1));
  util::Rng rng(23);
  const std::vector<float> a = random_unit_row(rng, dim);
  const std::vector<float> b = random_unit_row(rng, dim);
  const nn::detail::DotFn kernel = nn::detail::dot_kernel(mode);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel(a.data(), b.data(), dim));
  }
  state.SetLabel(nn::simd_mode_name(mode));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_SimdDot)
    ->Args({static_cast<int>(nn::SimdMode::kScalar), 64})
    ->Args({static_cast<int>(nn::SimdMode::kScalar), 512})
    ->Args({static_cast<int>(nn::SimdMode::kAvx2), 64})
    ->Args({static_cast<int>(nn::SimdMode::kAvx2), 512})
    ->Args({static_cast<int>(nn::SimdMode::kNeon), 64})
    ->Args({static_cast<int>(nn::SimdMode::kNeon), 512});

// The distance GEMM alone under each SIMD mode: m queries against a 512-row
// shard at the index dimension (32), as the scan's per-shard GEMM runs it.
// Items are (query, row) pairs; AVX2 takes the 1 x 8 register tile, scalar
// and NEON the per-pair kernel.
void BM_GemmNt(benchmark::State& state) {
  const auto mode = static_cast<nn::SimdMode>(state.range(0));
  if (!nn::simd_supported(mode)) {
    state.SkipWithError("SIMD mode not supported on this CPU");
    return;
  }
  const nn::SimdMode previous = nn::simd_mode();
  nn::set_simd_mode(mode);
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  const std::size_t n = 512, dim = 32;
  util::Rng rng(29);
  const nn::Matrix queries = random_unit_queries(m, dim, rng);
  const nn::Matrix rows = random_unit_queries(n, dim, rng);
  std::vector<float> dots(m * n);
  for (auto _ : state) {
    nn::gemm_nt_serial(queries.data(), m, rows.data(), n, dim, dots.data());
    benchmark::DoNotOptimize(dots.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(nn::simd_mode_name(mode));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * n));
  nn::set_simd_mode(previous);
}
BENCHMARK(BM_GemmNt)
    ->Args({static_cast<int>(nn::SimdMode::kScalar), 1})
    ->Args({static_cast<int>(nn::SimdMode::kScalar), 32})
    ->Args({static_cast<int>(nn::SimdMode::kAvx2), 1})
    ->Args({static_cast<int>(nn::SimdMode::kAvx2), 32})
    ->Args({static_cast<int>(nn::SimdMode::kNeon), 1})
    ->Args({static_cast<int>(nn::SimdMode::kNeon), 32});

// The batched k-NN scan under each supported SIMD mode: the GEMM tile is
// where the kernel above actually spends its cycles in production.
void BM_KnnQueryBatchSimd(benchmark::State& state) {
  const auto mode = static_cast<nn::SimdMode>(state.range(0));
  if (!nn::simd_supported(mode)) {
    state.SkipWithError("SIMD mode not supported on this CPU");
    return;
  }
  const nn::SimdMode previous = nn::simd_mode();
  nn::set_simd_mode(mode);
  util::Rng rng(17);
  const std::size_t dim = 32;
  const core::ShardedReferenceSet refs = synthetic_refs(10000, dim, rng);
  const core::KnnClassifier knn(50);
  const nn::Matrix queries = random_unit_queries(256, dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.rank_batch(refs, queries));
  }
  state.SetLabel(nn::simd_mode_name(mode));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.rows()));
  nn::set_simd_mode(previous);
}
BENCHMARK(BM_KnnQueryBatchSimd)
    ->Arg(static_cast<int>(nn::SimdMode::kScalar))
    ->Arg(static_cast<int>(nn::SimdMode::kAvx2))
    ->Arg(static_cast<int>(nn::SimdMode::kNeon));

// Crawling with an explicit pool of 1 vs N threads (identical corpora).
void BM_CollectCaptures(benchmark::State& state) {
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  data::DatasetBuildOptions opt;
  opt.samples_per_class = 12;
  opt.seed = 99;
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::collect_captures(wiki_site(), wiki_farm(), {}, opt, pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wiki_site().pages.size()) *
                          opt.samples_per_class);
}
BENCHMARK(BM_CollectCaptures)
    ->Arg(1)
    ->Arg(static_cast<int>(util::ThreadPool::default_thread_count()));

void BM_ForestPredict(benchmark::State& state) {
  static const auto fixture = [] {
    data::DatasetBuildOptions opt;
    opt.samples_per_class = 12;
    opt.seed = 99;
    const data::CaptureCorpus corpus = data::collect_captures(wiki_site(), wiki_farm(), {}, opt);
    auto dataset = std::make_shared<data::Dataset>(baselines::kfp_feature_dim());
    for (std::size_t i = 0; i < corpus.captures.size(); ++i)
      dataset->add({baselines::extract_kfp_features(corpus.captures[i]), corpus.labels[i]});
    auto forest = std::make_shared<baselines::RandomForest>(baselines::ForestConfig{});
    forest->fit(*dataset);
    return std::make_pair(forest, dataset);
  }();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.first->rank((*fixture.second)[i % fixture.second->size()].features));
    ++i;
  }
}
BENCHMARK(BM_ForestPredict);

void BM_FixedLengthPadding(benchmark::State& state) {
  util::Rng rng(6);
  const netsim::BrowserConfig cfg;
  std::vector<netsim::PacketCapture> corpus;
  for (int i = 0; i < 8; ++i)
    corpus.push_back(netsim::load_page(wiki_site(), wiki_farm(), i, cfg, rng));
  const trace::FixedLengthDefense defense = trace::FixedLengthDefense::fit(corpus);
  for (auto _ : state) {
    benchmark::DoNotOptimize(defense.apply(corpus[0], rng));
  }
}
BENCHMARK(BM_FixedLengthPadding);

}  // namespace

BENCHMARK_MAIN();
