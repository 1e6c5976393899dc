// The training kernels are bit-identical to plain loops, and training is
// bit-identical to the pinned history:
//  - matmul and matmul_at_b (accumulate true and false) against per-element
//    loops, under every supported SIMD mode and at pool sizes 1 and 7, on
//    odd shapes, with zero coefficients beside inf and NaN rows (the
//    zero-skip), -0.0 outputs and subnormal values;
//  - the Adam kernel against the plain update loop, on odd lengths, early
//    and late steps (either side of the step where the first bias
//    correction becomes 1.0), -0.0 and subnormal gradients;
//  - a golden FNV-1a hash of all weight bits after a few dozen training
//    steps of two fixed configurations, under every SIMD mode. Training
//    runs on the global pool; ctest runs this test at WF_THREADS=1 and 4
//    as well (test_train_kernels_serial / _split).
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <vector>

#include "core/embedding.hpp"
#include "data/pairs.hpp"
#include "nn/matrix.hpp"
#include "nn/simd.hpp"
#include "test_common.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace wf;

bool same_bits(const nn::Matrix& a, const nn::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(float)) == 0;
}

// A value mix with the cases the kernels must not disturb: exact zeros of
// both signs (the skip), subnormals, and ordinary normals.
float awkward_value(util::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.2) return 0.0f;
  if (u < 0.3) return -0.0f;
  if (u < 0.4) return static_cast<float>(rng.normal()) * 1e-39f;  // subnormal
  return static_cast<float>(rng.normal());
}

nn::Matrix awkward_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  nn::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows * cols; ++i) m.data()[i] = awkward_value(rng);
  return m;
}

// Poisons row `row` of b with inf, -inf and NaN. Callers zero every
// coefficient that multiplies it, so only a skipped row keeps c finite.
void poison_row(nn::Matrix& b, std::size_t row) {
  const float poison[3] = {std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::quiet_NaN()};
  for (std::size_t j = 0; j < b.cols(); ++j) b(row, j) = poison[j % 3];
}

// c (+)= a · b, one element at a time.
void plain_matmul(const nn::Matrix& a, const nn::Matrix& b, nn::Matrix& c, bool accumulate) {
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = accumulate ? c(i, j) : 0.0f;
      for (std::size_t l = 0; l < a.cols(); ++l) {
        if (a(i, l) == 0.0f) continue;
        acc += a(i, l) * b(l, j);
      }
      c(i, j) = acc;
    }
}

// c (+)= aᵀ · b, one element at a time, in sample order.
void plain_matmul_at_b(const nn::Matrix& a, const nn::Matrix& b, nn::Matrix& c,
                       bool accumulate) {
  for (std::size_t i = 0; i < a.cols(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = accumulate ? c(i, j) : 0.0f;
      for (std::size_t s = 0; s < a.rows(); ++s) {
        if (a(s, i) == 0.0f) continue;
        acc += a(s, i) * b(s, j);
      }
      c(i, j) = acc;
    }
}

struct Shape {
  std::size_t m, k, n;
};

// Shapes with odd m, n off the 8- and 64-column tiles, and (the last) one
// above the serial-work threshold, so pool size 7 really shards it.
const Shape kShapes[] = {{1, 1, 1},   {3, 5, 7},    {17, 13, 9},  {33, 70, 72},
                         {64, 64, 65}, {7, 129, 136}, {131, 129, 130}};

void check_gemm_kernels(util::ThreadPool& pool) {
  util::Rng rng(41);
  for (const Shape& shape : kShapes) {
    // matmul: a is m x k, b is k x n; column `dead` of a is all zeros (a mix
    // of +0 and -0) and row `dead` of b is poisoned. Row 0 of a is all zero
    // too, so row 0 of an accumulated c keeps its -0.0 entries.
    const std::size_t dead = shape.k / 2;
    nn::Matrix a = awkward_matrix(shape.m, shape.k, rng);
    nn::Matrix b = awkward_matrix(shape.k, shape.n, rng);
    for (std::size_t i = 0; i < shape.m; ++i) a(i, dead) = (i % 2) != 0 ? 0.0f : -0.0f;
    for (std::size_t l = 0; l < shape.k; ++l) a(0, l) = 0.0f;
    poison_row(b, dead);
    nn::Matrix c0 = awkward_matrix(shape.m, shape.n, rng);
    for (std::size_t j = 0; j < shape.n; ++j) c0(0, j) = -0.0f;
    for (const bool accumulate : {false, true}) {
      nn::Matrix expect = c0, got = c0;
      plain_matmul(a, b, expect, accumulate);
      nn::matmul(a, b, got, accumulate, &pool);
      CHECK(same_bits(expect, got));
    }

    // matmul_at_b: a is m x r (r = k), b is m x n; sample `dead` has an
    // all-zero gradient row and a poisoned input row, and unit 0 has a zero
    // gradient for every sample.
    const std::size_t dead_sample = shape.m / 2;
    nn::Matrix g = awkward_matrix(shape.m, shape.k, rng);
    nn::Matrix x = awkward_matrix(shape.m, shape.n, rng);
    for (std::size_t i = 0; i < shape.k; ++i) g(dead_sample, i) = 0.0f;
    for (std::size_t s = 0; s < shape.m; ++s) g(s, 0) = -0.0f;
    poison_row(x, dead_sample);
    nn::Matrix w0 = awkward_matrix(shape.k, shape.n, rng);
    for (std::size_t j = 0; j < shape.n; ++j) w0(0, j) = -0.0f;
    for (const bool accumulate : {false, true}) {
      nn::Matrix expect = w0, got = w0;
      plain_matmul_at_b(g, x, expect, accumulate);
      nn::matmul_at_b(g, x, got, accumulate, &pool);
      CHECK(same_bits(expect, got));
    }
  }
}

// The update Mlp::adam_step has always made, written out.
void plain_adam(std::vector<float>& w, const std::vector<float>& g, std::vector<float>& m,
                std::vector<float>& v, const nn::detail::AdamStep& step) {
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double grad = g[i] * step.scale;
    m[i] = static_cast<float>(0.9 * m[i] + (1.0 - 0.9) * grad);
    v[i] = static_cast<float>(0.999 * v[i] + (1.0 - 0.999) * grad * grad);
    const double mhat = m[i] / step.bias1;
    const double vhat = v[i] / step.bias2;
    w[i] -= static_cast<float>(step.learning_rate * mhat / (std::sqrt(vhat) + 1e-8));
  }
}

void check_adam_kernel(nn::detail::AdamFn adam) {
  util::Rng rng(43);
  // 1 - 0.9^t rounds to exactly 1.0 from t = 356 on, where the AVX2
  // kernel skips that division; 355 to 357 straddle the switch.
  for (const int t : {1, 2, 17, 355, 356, 357, 400, 1500})
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{7},
                                std::size_t{37}, std::size_t{1031}}) {
      const nn::detail::AdamStep step{1e-3, 1.0 / 64.0, 1.0 - std::pow(0.9, t),
                                      1.0 - std::pow(0.999, t)};
      CHECK((step.bias1 == 1.0) == (t >= 356));
      std::vector<float> w(n), g(n), m(n), v(n);
      for (std::size_t i = 0; i < n; ++i) {
        w[i] = awkward_value(rng);
        g[i] = awkward_value(rng) * 10.0f;
        m[i] = t == 1 ? 0.0f : awkward_value(rng) * 0.1f;
        v[i] = t == 1 ? 0.0f : std::fabs(awkward_value(rng)) * 0.01f;
      }
      std::vector<float> w2 = w, m2 = m, v2 = v;
      plain_adam(w, g, m, v, step);
      adam(w2.data(), g.data(), m2.data(), v2.data(), n, step);
      CHECK(test::same_bits(w, w2));
      CHECK(test::same_bits(m, m2));
      CHECK(test::same_bits(v, v2));
    }
}

// Labeled synthetic traces: class centres plus noise, clipped at zero like
// the padded, non-negative sequence encodings, so inputs carry exact zeros.
data::Dataset synthetic_dataset(std::size_t dim, int classes, int per_class,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  data::Dataset dataset(dim);
  for (int c = 0; c < classes; ++c) {
    std::vector<float> centre(dim);
    for (float& x : centre) x = static_cast<float>(rng.normal());
    for (int s = 0; s < per_class; ++s) {
      data::Sample sample;
      sample.label = c;
      for (const float x : centre) {
        const float f = x + static_cast<float>(rng.normal(0.0, 0.3));
        sample.features.push_back(f > 0.0f ? f : 0.0f);
      }
      dataset.add(std::move(sample));
    }
  }
  return dataset;
}

std::uint64_t fnv1a(std::uint64_t h, const float* data, std::size_t n) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t trained_weights_hash(const core::EmbeddingConfig& config) {
  const data::Dataset dataset = synthetic_dataset(config.input_dim(), 10, 8, config.seed);
  core::EmbeddingModel model(config);
  data::PairGenerator pairs(dataset, data::PairStrategy::kRandom, 5);
  model.train(pairs);
  const nn::Mlp& net = model.net();
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t l = 0; l < net.n_layers(); ++l) {
    const nn::Matrix& w = net.layer_weights(l);
    h = fnv1a(h, w.data(), w.rows() * w.cols());
    h = fnv1a(h, net.layer_bias(l).data(), net.layer_bias(l).size());
  }
  return h;
}

// The production shape (192 -> 128 -> 64 -> 32, contrastive) with 96-row
// batches, so the first layer's GEMMs are large enough to use the pool.
core::EmbeddingConfig default_shape_config() {
  core::EmbeddingConfig config;
  config.train_iterations = 24;
  config.batch_pairs = 48;
  return config;
}

// An odd shape (69 -> 72 -> 20 -> 12, triplet) whose widths fall off the
// kernels' 64- and 8-column tiles.
core::EmbeddingConfig odd_shape_config() {
  core::EmbeddingConfig config;
  config.timesteps = 23;
  config.hidden = {72, 20};
  config.embedding_dim = 12;
  config.train_iterations = 40;
  config.batch_pairs = 11;
  config.objective = core::Objective::kTriplet;
  config.seed = 77;
  return config;
}

// Hashes of the trained weights as every earlier build has produced them.
constexpr std::uint64_t kDefaultShapeHash = 0x326cd1fc6a18a881ull;
constexpr std::uint64_t kOddShapeHash = 0x372b4d3c0a7ce741ull;

}  // namespace

int main() {
  util::ThreadPool one(1), seven(7);
  std::cout << "global pool: " << util::global_pool().size() << " threads\n";
  for (const nn::SimdMode mode : nn::supported_simd_modes()) {
    CHECK(nn::set_simd_mode(mode));
    std::cout << "simd mode: " << nn::simd_mode_name(mode) << "\n";
    check_gemm_kernels(one);
    check_gemm_kernels(seven);
    check_adam_kernel(nn::detail::adam_kernel(mode));

    const std::uint64_t default_hash = trained_weights_hash(default_shape_config());
    const std::uint64_t odd_hash = trained_weights_hash(odd_shape_config());
    std::cout << std::hex << "  default shape 0x" << default_hash << ", odd shape 0x" << odd_hash
              << std::dec << "\n";
    CHECK(default_hash == kDefaultShapeHash);
    CHECK(odd_hash == kOddShapeHash);
  }
  return TEST_MAIN_RESULT();
}
