#include "nn/matrix.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/simd.hpp"
#include "util/thread_pool.hpp"

namespace wf::nn {

namespace {

// The dot products behind gemm_nt_serial live in nn/simd.cpp: the scalar
// kernel fixes the float summation order (eight independent lanes, pairwise
// reduction) and the AVX2 register tile and NEON kernel replay the exact
// same operation sequence, so WF_SIMD changes speed, never bits.

constexpr std::size_t kRowBlock = 32;   // rows of a per task
constexpr std::size_t kColBlock = 128;  // rows of b kept hot in cache

// Below this many multiply-adds (m * n * k) a GEMM runs on the calling
// thread, because one pool fork/join (~20 us) costs about what it saves. The
// value comes from a sweep of the three training shapes, serial against a
// 4-thread pool on a 4-vCPU Xeon. Alone, GEMMs of 1.0-1.6M gained at most
// ~20% from the pool, and pooling them made a whole training step slower.
// From 2.4M up the pool won by 1.5-2x. Every training-step GEMM of the
// default 192 -> 128 -> 64 -> 32 network (64 rows, at most
// 64 * 192 * 128 = 1.6M) therefore runs serially.
constexpr std::size_t kSerialWork = std::size_t{1} << 21;

// matmul_transposed is the forward pass of training and of evaluation
// alike, and work alone cannot tell them apart: a 750-query evaluation
// batch's 750 x 64 x 32 last layer (1.5M) is smaller than the largest
// training GEMM, yet gains from the pool. So it runs serially only for
// batches of at most kSerialRows rows as well. A training step has
// 2 * batch_pairs (contrastive) or 3 * batch_pairs (triplet) rows, 64 or
// 96 by default; evaluation embeds hundreds to thousands of traces at once.
constexpr std::size_t kSerialRows = 128;

// Runs body over [0, rows) in kRowBlock blocks: inline when `serial`, else
// on the pool. Both give the same bits, since every output row is computed
// by one task in a fixed order.
template <typename Body>
void for_row_blocks(util::ThreadPool* pool, std::size_t rows, bool serial, Body&& body) {
  if (serial) {
    body(std::size_t{0}, rows);
    return;
  }
  (pool != nullptr ? *pool : util::global_pool()).parallel_blocks(0, rows, kRowBlock, body);
}

}  // namespace

void gemm_nt_serial(const float* a, std::size_t m, const float* b, std::size_t n, std::size_t k,
                    float* dots) {
  const detail::DotRowsFn dot_rows = detail::dot_rows_kernel(simd_mode());
  for (std::size_t j0 = 0; j0 < n; j0 += kColBlock) {
    const std::size_t j1 = j0 + kColBlock < n ? j0 + kColBlock : n;
    for (std::size_t i = 0; i < m; ++i)
      dot_rows(a + i * k, b + j0 * k, j1 - j0, k, dots + i * n + j0);
  }
}

void matmul_transposed(const Matrix& a, const Matrix& b, Matrix& c, util::ThreadPool* pool) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (b.cols() != k) throw std::invalid_argument("matmul_transposed: inner dim mismatch");
  if (c.rows() != m || c.cols() != n)
    throw std::invalid_argument("matmul_transposed: output shape mismatch");
  const bool serial = m <= kSerialRows && m * n * k < kSerialWork;
  for_row_blocks(pool, m, serial, [&](std::size_t lo, std::size_t hi) {
    gemm_nt_serial(a.data() + lo * k, hi - lo, b.data(), n, k, c.data() + lo * n);
  });
}

Matrix matmul_transposed(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  matmul_transposed(a, b, c);
  return c;
}

void matmul(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate,
            util::ThreadPool* pool) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (b.rows() != k) throw std::invalid_argument("matmul: inner dim mismatch");
  if (c.rows() != m || c.cols() != n) throw std::invalid_argument("matmul: output shape mismatch");
  const detail::AxpyRowsFn axpy_rows = detail::axpy_rows_kernel(simd_mode());
  for_row_blocks(pool, m, m * n * k < kSerialWork, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      float* out = c.data() + i * n;
      if (!accumulate) std::fill(out, out + n, 0.0f);
      // Row i of c sums the rows of b weighted by row i of a, in order.
      axpy_rows(a.data() + i * k, 1, k, b.data(), n, out);
    }
  });
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  matmul(a, b, c);
  return c;
}

void matmul_at_b(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate,
                 util::ThreadPool* pool) {
  const std::size_t m = a.rows(), r = a.cols(), n = b.cols();
  if (b.rows() != m) throw std::invalid_argument("matmul_at_b: inner dim mismatch");
  if (c.rows() != r || c.cols() != n)
    throw std::invalid_argument("matmul_at_b: output shape mismatch");
  const detail::AxpyRowsFn axpy_rows = detail::axpy_rows_kernel(simd_mode());
  for_row_blocks(pool, r, m * r * n < kSerialWork, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      float* out = c.data() + i * n;
      if (!accumulate) std::fill(out, out + n, 0.0f);
      // Row i of c sums the sample rows of b weighted by column i of a, in
      // sample order.
      axpy_rows(a.data() + i, r, m, b.data(), n, out);
    }
  });
}

}  // namespace wf::nn
