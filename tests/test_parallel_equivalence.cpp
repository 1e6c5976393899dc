// Parallel/batched paths agree with their serial/scalar counterparts:
//  - crawling with 1 vs N threads yields byte-identical corpora,
//  - the GEMM kernels are bit-identical across pool sizes,
//  - rank_batch agrees with a brute-force linear-scan ranking,
//  - forward_batch / embed match a double-accumulation oracle, and every
//    row of a batch equals the one-row call on that row bit for bit.
#include <cmath>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "core/embedding.hpp"
#include "core/knn.hpp"
#include "core/sharded_reference_set.hpp"
#include "data/build.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "test_common.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace wf;

std::vector<float> random_unit(util::Rng& rng, std::size_t dim) {
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

// Test-local forward oracle, independent of the GEMM kernels: each output
// is its bias plus the weighted inputs, accumulated in double in index
// order, with ReLU on every layer but the last.
std::vector<float> oracle_forward(const nn::Mlp& mlp, std::span<const float> x) {
  std::vector<float> in(x.begin(), x.end());
  for (std::size_t l = 0; l < mlp.n_layers(); ++l) {
    const nn::Matrix& w = mlp.layer_weights(l);
    const std::vector<float>& bias = mlp.layer_bias(l);
    const bool last = l + 1 == mlp.n_layers();
    std::vector<float> out(w.rows());
    for (std::size_t r = 0; r < w.rows(); ++r) {
      double acc = bias[r];
      for (std::size_t c = 0; c < w.cols(); ++c) acc += w(r, c) * in[c];
      const float a = static_cast<float>(acc);
      out[r] = last ? a : (a > 0.0f ? a : 0.0f);
    }
    in = std::move(out);
  }
  return in;
}

// The oracle's output scaled to unit length (double norm).
std::vector<float> oracle_embed(const nn::Mlp& mlp, std::span<const float> x) {
  std::vector<float> v = oracle_forward(mlp, x);
  double norm = 0.0;
  for (const float e : v) norm += static_cast<double>(e) * e;
  norm = std::sqrt(norm);
  const double inv = norm > 1e-12 ? 1.0 / norm : 0.0;
  for (float& e : v) e = static_cast<float>(e * inv);
  return v;
}

nn::Matrix one_row(const nn::Matrix& x, std::size_t i) {
  nn::Matrix row(1, x.cols());
  row.set_row(0, x.row_span(i));
  return row;
}

bool same_row_bits(const nn::Matrix& a, std::size_t i, const nn::Matrix& b) {
  return b.rows() == 1 && a.cols() == b.cols() &&
         std::memcmp(a.row_span(i).data(), b.data(), a.cols() * sizeof(float)) == 0;
}

nn::Matrix uniform_matrix(util::Rng& rng, std::size_t rows, std::size_t cols, double lo,
                          double hi) {
  nn::Matrix x(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) x(i, j) = static_cast<float>(rng.uniform(lo, hi));
  return x;
}

}  // namespace

int main() {
  // --- Crawl determinism: 1 thread vs N threads, byte-identical corpora.
  {
    netsim::WikiSiteConfig site_config;
    site_config.n_pages = 12;
    site_config.seed = 31;
    const netsim::Website site = netsim::make_wiki_site(site_config);
    const netsim::ServerFarm farm = netsim::ServerFarm::for_wiki();
    data::DatasetBuildOptions options;
    options.samples_per_class = 5;
    options.seed = 77;

    util::ThreadPool one(1), many(5);
    const data::CaptureCorpus serial = data::collect_captures(site, farm, {}, options, one);
    const data::CaptureCorpus parallel = data::collect_captures(site, farm, {}, options, many);
    CHECK(serial.size() == parallel.size());
    CHECK(serial.labels == parallel.labels);
    bool identical = true;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const auto& a = serial.captures[i];
      const auto& b = parallel.captures[i];
      if (a.tls != b.tls || a.records.size() != b.records.size()) {
        identical = false;
        break;
      }
      for (std::size_t r = 0; r < a.records.size(); ++r) {
        const auto& ra = a.records[r];
        const auto& rb = b.records[r];
        if (ra.time_ms != rb.time_ms || ra.direction != rb.direction ||
            ra.wire_bytes != rb.wire_bytes || ra.server != rb.server) {
          identical = false;
          break;
        }
      }
      if (!identical) break;
    }
    CHECK(identical);

    // And the encoded datasets match exactly too.
    trace::SequenceOptions seq;
    const data::Dataset da = data::encode_corpus(serial, seq);
    const data::Dataset db = data::encode_corpus(parallel, seq);
    CHECK(da.size() == db.size());
    bool features_equal = true;
    for (std::size_t i = 0; i < da.size(); ++i)
      features_equal = features_equal && (da[i].features == db[i].features);
    CHECK(features_equal);
  }

  // --- Same property with the packet-level transport enabled (loss draws
  // included): byte-identical corpora for any thread count.
  {
    netsim::WikiSiteConfig site_config;
    site_config.n_pages = 8;
    site_config.seed = 47;
    const netsim::Website site = netsim::make_wiki_site(site_config);
    const netsim::ServerFarm farm = netsim::ServerFarm::for_wiki();
    data::DatasetBuildOptions options;
    options.samples_per_class = 4;
    options.seed = 55;
    options.browser.transport.enabled = true;
    options.browser.transport.loss_probability = 0.05;
    options.browser.transport.http = netsim::HttpVersion::kHttp2;

    util::ThreadPool one(1), many(5);
    const data::CaptureCorpus serial = data::collect_captures(site, farm, {}, options, one);
    const data::CaptureCorpus parallel = data::collect_captures(site, farm, {}, options, many);
    CHECK(serial.size() == parallel.size());
    CHECK(serial.labels == parallel.labels);
    bool identical = true;
    for (std::size_t i = 0; i < serial.size() && identical; ++i) {
      const auto& a = serial.captures[i];
      const auto& b = parallel.captures[i];
      identical = a.tls == b.tls && a.records.size() == b.records.size();
      for (std::size_t r = 0; identical && r < a.records.size(); ++r) {
        const auto& ra = a.records[r];
        const auto& rb = b.records[r];
        identical = ra.time_ms == rb.time_ms && ra.direction == rb.direction &&
                    ra.wire_bytes == rb.wire_bytes && ra.server == rb.server;
      }
    }
    CHECK(identical);

    // The reassembling encoder is schedule-independent too.
    trace::SequenceOptions seq;
    seq.coalesce_packets = true;
    const data::Dataset da = data::encode_corpus(serial, seq);
    const data::Dataset db = data::encode_corpus(parallel, seq);
    CHECK(da.size() == db.size());
    bool features_equal = true;
    for (std::size_t i = 0; i < da.size(); ++i)
      features_equal = features_equal && (da[i].features == db[i].features);
    CHECK(features_equal);
  }

  // --- GEMM kernels: bit-identical for any pool size. The shape is above
  // matmul_transposed's serial cut-off (more than 128 rows and ~2.7M
  // multiply-adds), so the 7-thread pool really shards the rows.
  {
    util::Rng rng(5);
    nn::Matrix a(131, 160), b(129, 160);
    for (std::size_t i = 0; i < a.rows(); ++i)
      for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = static_cast<float>(rng.normal());
    for (std::size_t i = 0; i < b.rows(); ++i)
      for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = static_cast<float>(rng.normal());
    util::ThreadPool one(1), many(7);
    nn::Matrix c1(a.rows(), b.rows()), cn(a.rows(), b.rows());
    nn::matmul_transposed(a, b, c1, &one);
    nn::matmul_transposed(a, b, cn, &many);
    bool equal = true;
    for (std::size_t i = 0; i < c1.rows(); ++i)
      for (std::size_t j = 0; j < c1.cols(); ++j) equal = equal && (c1(i, j) == cn(i, j));
    CHECK(equal);
  }

  // --- rank_batch vs brute-force scalar ranking on clustered random data.
  {
    util::Rng rng(11);
    const std::size_t dim = 16;
    std::vector<test::LabeledRow> rows;
    core::ShardedReferenceSet refs(dim);
    for (int c = 0; c < 12; ++c) {
      const std::vector<float> center = random_unit(rng, dim);
      for (int s = 0; s < 25; ++s) {
        std::vector<float> e = center;
        for (float& x : e) x += static_cast<float>(rng.normal(0.0, 0.08));
        refs.add(e, 100 + c);
        rows.push_back({e, 100 + c});
      }
    }
    const core::KnnClassifier knn(15);
    nn::Matrix queries(40, dim);
    for (std::size_t q = 0; q < queries.rows(); ++q) queries.set_row(q, random_unit(rng, dim));

    const auto batch = knn.rank_batch(refs, queries);
    CHECK(batch.size() == queries.rows());
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      const auto expected = test::brute_force_rank(rows, queries.row_span(q), knn.k());
      const auto& got = batch[q];
      CHECK(got.size() == expected.size());
      for (std::size_t r = 0; r < got.size() && r < expected.size(); ++r) {
        CHECK(got[r].label == expected[r].label);
        CHECK(got[r].votes == expected[r].votes);
        CHECK_NEAR(got[r].distance, expected[r].distance, 1e-4);
      }
      // The scalar rank() is the same kernel on one row.
      const auto single = knn.rank(refs, queries.row_span(q));
      CHECK(single.size() == got.size());
      for (std::size_t r = 0; r < single.size() && r < got.size(); ++r) {
        CHECK(single[r].label == got[r].label);
        CHECK(single[r].votes == got[r].votes);
      }
    }
  }

  // --- forward_batch matches the double-accumulation oracle to 1e-5, and
  // each row of a batch is bit-identical to the one-row batch of that row
  // (wf serve coalesces queries on this). 300 rows takes the pooled GEMM;
  // one row takes the serial one.
  {
    nn::Mlp mlp({24, 48, 16, 8}, 99);
    util::Rng rng(21);
    const nn::Matrix x = uniform_matrix(rng, 300, 24, -1.0, 1.0);
    const nn::Matrix batch = mlp.forward_batch(x);
    CHECK(batch.rows() == x.rows());
    CHECK(batch.cols() == 8);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const std::vector<float> row = oracle_forward(mlp, x.row_span(i));
      for (std::size_t j = 0; j < row.size(); ++j) CHECK_NEAR(batch(i, j), row[j], 1e-5);
      CHECK(same_row_bits(batch, i, mlp.forward_batch(one_row(x, i))));
    }
  }

  // --- embed matches the normalized oracle to 1e-5, and each row of a
  // batch is bit-identical to the one-row embed of that row.
  {
    core::EmbeddingConfig config;
    config.n_sequences = 2;
    config.timesteps = 16;
    config.embedding_dim = 8;
    config.hidden = {24};
    const core::EmbeddingModel model(config);
    util::Rng rng(8);
    const nn::Matrix batch = uniform_matrix(rng, 200, config.input_dim(), 0.0, 2.0);
    const nn::Matrix out = model.embed(batch);
    for (std::size_t i = 0; i < batch.rows(); ++i) {
      const std::vector<float> row = oracle_embed(model.net(), batch.row_span(i));
      for (std::size_t j = 0; j < row.size(); ++j) CHECK_NEAR(out(i, j), row[j], 1e-5);
      CHECK(same_row_bits(out, i, model.embed(one_row(batch, i))));
    }
  }

  return TEST_MAIN_RESULT();
}
