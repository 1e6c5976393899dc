#include "nn/matrix.hpp"

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

util::ThreadPool& pool_or_global(util::ThreadPool* pool) {
  return pool != nullptr ? *pool : util::global_pool();
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
  pool_or_global(pool).parallel_blocks(0, m, kRowBlock, [&](std::size_t lo, std::size_t hi) {
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
  pool_or_global(pool).parallel_blocks(0, m, kRowBlock, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      float* out = c.data() + i * n;
      if (!accumulate)
        for (std::size_t j = 0; j < n; ++j) out[j] = 0.0f;
      const float* ai = a.data() + i * k;
      // axpy over rows of b: unit-stride inner loop, fixed order in l.
      for (std::size_t l = 0; l < k; ++l) {
        const float s = ai[l];
        if (s == 0.0f) continue;
        const float* bl = b.data() + l * n;
        for (std::size_t j = 0; j < n; ++j) out[j] += s * bl[j];
      }
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
  pool_or_global(pool).parallel_blocks(0, r, kRowBlock, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      float* out = c.data() + i * n;
      if (!accumulate)
        for (std::size_t j = 0; j < n; ++j) out[j] = 0.0f;
      // Accumulate sample contributions in sample order: matches the
      // per-sample backward exactly.
      for (std::size_t s = 0; s < m; ++s) {
        const float g = a(s, i);
        if (g == 0.0f) continue;
        const float* bs = b.data() + s * n;
        for (std::size_t j = 0; j < n; ++j) out[j] += g * bs[j];
      }
    }
  });
}

}  // namespace wf::nn
