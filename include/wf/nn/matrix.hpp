#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/aligned.hpp"
#include "util/check.hpp"

namespace wf::util {
class ThreadPool;
}

namespace wf::nn {

// Dense row-major float matrix: the interchange type between the dataset,
// the embedding network and the reference set. Deliberately small — just
// enough linear-algebra surface for the MLP and the k-NN search.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  float& operator()(std::size_t r, std::size_t c) {
    WF_DCHECK(r < rows_ && c < cols_, "Matrix::operator(): index out of range");
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    WF_DCHECK(r < rows_ && c < cols_, "Matrix::operator(): index out of range");
    return data_[r * cols_ + c];
  }

  std::span<float> row(std::size_t r) {
    WF_CHECK(r < rows_, "Matrix::row: index out of range");
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const float> row_span(std::size_t r) const {
    WF_CHECK(r < rows_, "Matrix::row_span: index out of range");
    return {data_.data() + r * cols_, cols_};
  }

  void set_row(std::size_t r, std::span<const float> values) {
    WF_CHECK(r < rows_, "Matrix::set_row: row out of range");
    WF_CHECK(values.size() == cols_, "Matrix::set_row: width mismatch");
    float* dst = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) dst[c] = values[c];
  }

  // Reshape to rows x cols of zeros, reusing the existing allocation.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0f);
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void fill(float value) { data_.assign(data_.size(), value); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // 64-byte-aligned so the SIMD distance kernels get cache-line-aligned
  // base pointers (see util/aligned.hpp).
  util::AlignedVector<float> data_;
};

// Squared norm with double accumulation in index order — the one reduction
// the cached-norm distance identity (‖a‖²+‖b‖²−2a·b) depends on; k-NN and
// the open-world detector must share it exactly.
inline double squared_norm(const float* v, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += static_cast<double>(v[i]) * v[i];
  return acc;
}

// Squared Euclidean distance between two equally sized vectors. The IVF
// seeding kernel (nn/simd.hpp SquaredDistancesFn) replays this sequence
// lane by lane; change one and the other with it.
inline double squared_distance(std::span<const float> a, std::span<const float> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}

// Blocked GEMM kernels behind the batched hot paths. All of them compute
// each output element with a fixed operation order that does not depend on
// the thread count, so parallel and serial runs are bit-identical. Passing
// pool = nullptr uses util::global_pool(). A GEMM with fewer than ~2M
// multiply-adds runs on the calling thread; matmul_transposed does so only
// for batches of at most 128 rows, so every training-step GEMM is serial and
// evaluation batches stay on the pool.

// c = a · bᵀ (b stored row-major as n x k, i.e. one reference per row).
// a: m x k, c: m x n. Row blocks of a run through gemm_nt_serial.
void matmul_transposed(const Matrix& a, const Matrix& b, Matrix& c,
                       util::ThreadPool* pool = nullptr);
Matrix matmul_transposed(const Matrix& a, const Matrix& b);

// c = a · b. a: m x k, b: k x n, c: m x n. This and matmul_at_b run the
// active SIMD mode's nn::detail::AxpyRowsFn, so a zero entry of a adds
// nothing to c.
void matmul(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate = false,
            util::ThreadPool* pool = nullptr);
Matrix matmul(const Matrix& a, const Matrix& b);

// c += aᵀ · b (the weight-gradient shape). a: m x r, b: m x n, c: r x n.
void matmul_at_b(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate = true,
                 util::ThreadPool* pool = nullptr);

// Serial raw-pointer core of matmul_transposed for callers that already run
// inside a parallel region (the reference-store scan, centroid ranking):
// computes dots[i * n + j] = <a_i, b_j> for a: m x k and b: n x k, both
// row-major, on the active SIMD mode's row kernel (nn/simd.hpp). Every
// element is bit-identical to that mode's per-pair dot product.
void gemm_nt_serial(const float* a, std::size_t m, const float* b, std::size_t n, std::size_t k,
                    float* dots);

}  // namespace wf::nn
