#include "nn/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "util/env.hpp"
#include "util/log.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define WF_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
#define WF_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace wf::nn {

namespace {

// The scalar reference kernel: eight independent accumulator lanes, mul
// then add, reduced pairwise. Every vector kernel below replays exactly
// this operation sequence (lane l holds the same partial sums), so all
// modes return bit-identical floats. Keep the implementations (the three
// dot kernels and the AVX2 row tile) in lockstep — a change to one is a
// change to all.
float dot_scalar(const float* a, const float* b, std::size_t k) {
  float acc[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  const std::size_t k8 = k & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < k8; i += 8)
    for (std::size_t l = 0; l < 8; ++l) acc[l] += a[i + l] * b[i + l];
  float tail = 0.0f;
  for (std::size_t i = k8; i < k; ++i) tail += a[i] * b[i];
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) +
         tail;
}

// The scalar backward kernel (nn/simd.hpp): each coefficient in order, one
// multiply then one add per output, rows with a zero coefficient skipped.
void axpy_rows_scalar(const float* coef, std::size_t coef_stride, std::size_t count,
                      const float* rows, std::size_t n, float* out) {
  for (std::size_t t = 0; t < count; ++t) {
    const float c = coef[t * coef_stride];
    if (c == 0.0f) continue;
    const float* row = rows + t * n;
    for (std::size_t j = 0; j < n; ++j) out[j] += c * row[j];
  }
}

// The scalar Adam update, the one the optimizer has always run. The AVX2
// twin below replays it operation for operation.
void adam_scalar(float* w, const float* g, float* m, float* v, std::size_t n,
                 const detail::AdamStep& step) {
  for (std::size_t i = 0; i < n; ++i) {
    const double grad = g[i] * step.scale;
    m[i] = static_cast<float>(detail::kAdamBeta1 * m[i] + (1.0 - detail::kAdamBeta1) * grad);
    v[i] = static_cast<float>(detail::kAdamBeta2 * v[i] +
                              (1.0 - detail::kAdamBeta2) * grad * grad);
    const double mhat = m[i] / step.bias1;
    const double vhat = v[i] / step.bias2;
    w[i] -= static_cast<float>(step.learning_rate * mhat / (std::sqrt(vhat) + detail::kAdamEps));
  }
}

// The scalar seeding kernel (nn/simd.hpp): one lane per sample, each
// replaying nn::squared_distance. Dimension-outer, so every pass reads one
// contiguous column; lane s still adds its terms in dimension order.
void squared_distances_scalar(const float* cols, std::size_t n, const float* point,
                              std::size_t dim, double* out) {
  std::fill(out, out + n, 0.0);
  for (std::size_t i = 0; i < dim; ++i) {
    const double c = static_cast<double>(point[i]);
    const float* col = cols + i * n;
    for (std::size_t s = 0; s < n; ++s) {
      const double d = static_cast<double>(col[s]) - c;
      out[s] += d * d;
    }
  }
}

// The scalar nearest-centroid argmin (nn/simd.hpp): the cluster of least
// margin(c) = norms[c] - 2 * dots[c]. Strict less keeps the lowest index on
// ties and never lets a NaN margin win; a NaN margin(0) is never replaced.
double margin(const double* norms, const float* dots, std::size_t c) {
  return norms[c] - 2.0 * static_cast<double>(dots[c]);
}

std::size_t argmin_margin_scalar(const double* norms, const float* dots, std::size_t n) {
  std::size_t best = 0;
  double best_margin = margin(norms, dots, 0);
  for (std::size_t c = 1; c < n; ++c) {
    const double m = margin(norms, dots, c);
    if (m < best_margin) {
      best_margin = m;
      best = c;
    }
  }
  return best;
}

#ifdef WF_SIMD_HAVE_AVX2
// One 8-float register = the scalar kernel's eight lanes. Separate multiply
// and add (no FMA: target("avx2") does not enable it, and a fused step
// would change the rounding and break bit-identity with scalar).
__attribute__((target("avx2"))) float dot_avx2(const float* a, const float* b, std::size_t k) {
  __m256 acc = _mm256_setzero_ps();
  const std::size_t k8 = k & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < k8; i += 8)
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  alignas(32) float lane[8];
  _mm256_store_ps(lane, acc);
  float tail = 0.0f;
  for (std::size_t i = k8; i < k; ++i) tail += a[i] * b[i];
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7])) + tail;
}

// The 1 query x 8 rows register tile (reduction tree: nn/simd.hpp). Row r
// keeps its own accumulator, so each output replays dot_avx2's operation
// sequence; hadd adds l1+l0 where the scalar kernel adds l0+l1, which IEEE
// commutativity makes the same bits.
__attribute__((target("avx2"))) void dot_rows_avx2(const float* a, const float* b,
                                                   std::size_t n, std::size_t k, float* out) {
  const std::size_t k8 = k & ~static_cast<std::size_t>(7);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const float* r = b + j * k;
    __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
    __m256 acc4 = _mm256_setzero_ps(), acc5 = _mm256_setzero_ps();
    __m256 acc6 = _mm256_setzero_ps(), acc7 = _mm256_setzero_ps();
    for (std::size_t i = 0; i < k8; i += 8) {
      const __m256 x = _mm256_loadu_ps(a + i);
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(x, _mm256_loadu_ps(r + i)));
      acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(x, _mm256_loadu_ps(r + k + i)));
      acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(x, _mm256_loadu_ps(r + 2 * k + i)));
      acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(x, _mm256_loadu_ps(r + 3 * k + i)));
      acc4 = _mm256_add_ps(acc4, _mm256_mul_ps(x, _mm256_loadu_ps(r + 4 * k + i)));
      acc5 = _mm256_add_ps(acc5, _mm256_mul_ps(x, _mm256_loadu_ps(r + 5 * k + i)));
      acc6 = _mm256_add_ps(acc6, _mm256_mul_ps(x, _mm256_loadu_ps(r + 6 * k + i)));
      acc7 = _mm256_add_ps(acc7, _mm256_mul_ps(x, _mm256_loadu_ps(r + 7 * k + i)));
    }
    // The eight scalar tails. With no tail the oracle still adds +0.0f,
    // which a zero register gives without a store-to-load round trip.
    __m256 tails = _mm256_setzero_ps();
    if (k8 != k) {
      alignas(32) float tail[8];
      for (std::size_t t = 0; t < 8; ++t) {
        float s = 0.0f;
        for (std::size_t i = k8; i < k; ++i) s += a[i] * r[t * k + i];
        tail[t] = s;
      }
      tails = _mm256_load_ps(tail);
    }
    const __m256 lo = _mm256_hadd_ps(_mm256_hadd_ps(acc0, acc1), _mm256_hadd_ps(acc2, acc3));
    const __m256 hi = _mm256_hadd_ps(_mm256_hadd_ps(acc4, acc5), _mm256_hadd_ps(acc6, acc7));
    const __m256 sum = _mm256_add_ps(_mm256_permute2f128_ps(lo, hi, 0x20),
                                     _mm256_permute2f128_ps(lo, hi, 0x31));
    _mm256_storeu_ps(out + j, _mm256_add_ps(sum, tails));
  }
  for (; j < n; ++j) out[j] = dot_avx2(a, b + j * k, k);
}

// squared_distances_scalar 16 samples at a time: four 4-double registers,
// each lane starting at +0.0 and adding its own d * d per dimension (a
// separate vmulpd and vaddpd), so every lane is the scalar lane's sequence.
// The last n % 16 samples take the same sequence one lane at a time.
__attribute__((target("avx2"))) void squared_distances_avx2(const float* cols, std::size_t n,
                                                            const float* point, std::size_t dim,
                                                            double* out) {
  std::size_t s = 0;
  for (; s + 16 <= n; s += 16) {
    __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd(), acc3 = _mm256_setzero_pd();
    for (std::size_t i = 0; i < dim; ++i) {
      const __m256d c = _mm256_set1_pd(static_cast<double>(point[i]));
      const float* x = cols + i * n + s;
      const __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(x)), c);
      const __m256d d1 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(x + 4)), c);
      const __m256d d2 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(x + 8)), c);
      const __m256d d3 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(x + 12)), c);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(d2, d2));
      acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(d3, d3));
    }
    _mm256_storeu_pd(out + s, acc0);
    _mm256_storeu_pd(out + s + 4, acc1);
    _mm256_storeu_pd(out + s + 8, acc2);
    _mm256_storeu_pd(out + s + 12, acc3);
  }
  for (; s < n; ++s) {
    double acc = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double d = static_cast<double>(cols[i * n + s]) - static_cast<double>(point[i]);
      acc += d * d;
    }
    out[s] = acc;
  }
}

// Four margins c .. c + 3, each margin()'s multiply then subtract.
__attribute__((target("avx2"))) inline __m256d margins_avx2(const double* norms,
                                                           const float* dots, std::size_t c) {
  return _mm256_sub_pd(_mm256_loadu_pd(norms + c),
                       _mm256_mul_pd(_mm256_set1_pd(2.0), _mm256_cvtps_pd(_mm_loadu_ps(dots + c))));
}

// argmin_margin_scalar in two passes. The first finds the least margin:
// vminpd(m, run) returns run when m is NaN, so a NaN never enters the
// running minima, which start at margin(0). The minimum of a set does not
// depend on the order it is taken in (+0.0 and -0.0 compare equal), so four
// running registers are safe. The second pass returns the first index whose
// margin compares equal to it, which is the one the scalar loop keeps.
__attribute__((target("avx2"))) std::size_t argmin_margin_avx2(const double* norms,
                                                               const float* dots,
                                                               std::size_t n) {
  const double first = margin(norms, dots, 0);
  if (n < 4 || std::isnan(first)) return argmin_margin_scalar(norms, dots, n);
  __m256d run0 = _mm256_set1_pd(first), run1 = run0, run2 = run0, run3 = run0;
  std::size_t c = 0;
  for (; c + 16 <= n; c += 16) {
    run0 = _mm256_min_pd(margins_avx2(norms, dots, c), run0);
    run1 = _mm256_min_pd(margins_avx2(norms, dots, c + 4), run1);
    run2 = _mm256_min_pd(margins_avx2(norms, dots, c + 8), run2);
    run3 = _mm256_min_pd(margins_avx2(norms, dots, c + 12), run3);
  }
  for (; c + 4 <= n; c += 4) run0 = _mm256_min_pd(margins_avx2(norms, dots, c), run0);
  const __m256d run = _mm256_min_pd(_mm256_min_pd(run0, run1), _mm256_min_pd(run2, run3));
  const __m128d pair = _mm_min_pd(_mm256_castpd256_pd128(run), _mm256_extractf128_pd(run, 1));
  double least = _mm_cvtsd_f64(_mm_min_sd(pair, _mm_unpackhi_pd(pair, pair)));
  for (std::size_t t = c; t < n; ++t) least = std::min(least, margin(norms, dots, t));

  const __m256d target = _mm256_set1_pd(least);
  for (c = 0; c + 4 <= n; c += 4) {
    const int hits =
        _mm256_movemask_pd(_mm256_cmp_pd(margins_avx2(norms, dots, c), target, _CMP_EQ_OQ));
    if (hits != 0) return c + static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(hits)));
  }
  for (; c < n; ++c)
    if (margin(norms, dots, c) == least) break;
  return c;
}

// axpy_rows_scalar with the zero test hoisted: each chunk of coefficients is
// compacted to its non-zero entries first, so the column tiles below loop
// without a branch. Every output column still sees the same adds in the
// same order; the vectors only run across columns.
__attribute__((target("avx2"))) void axpy_rows_avx2(const float* coef, std::size_t coef_stride,
                                                    std::size_t count, const float* rows,
                                                    std::size_t n, float* out) {
  constexpr std::size_t kChunk = 64;
  float c[kChunk];
  const float* r[kChunk];
  for (std::size_t t0 = 0; t0 < count; t0 += kChunk) {
    const std::size_t t1 = std::min(count, t0 + kChunk);
    std::size_t nz = 0;
    for (std::size_t t = t0; t < t1; ++t) {
      c[nz] = coef[t * coef_stride];
      r[nz] = rows + t * n;
      nz += c[nz] != 0.0f ? 1 : 0;
    }
    if (nz == 0) continue;
    std::size_t j = 0;
    for (; j + 64 <= n; j += 64) {
      __m256 o0 = _mm256_loadu_ps(out + j), o1 = _mm256_loadu_ps(out + j + 8);
      __m256 o2 = _mm256_loadu_ps(out + j + 16), o3 = _mm256_loadu_ps(out + j + 24);
      __m256 o4 = _mm256_loadu_ps(out + j + 32), o5 = _mm256_loadu_ps(out + j + 40);
      __m256 o6 = _mm256_loadu_ps(out + j + 48), o7 = _mm256_loadu_ps(out + j + 56);
      for (std::size_t q = 0; q < nz; ++q) {
        const __m256 s = _mm256_set1_ps(c[q]);
        const float* x = r[q] + j;
        o0 = _mm256_add_ps(o0, _mm256_mul_ps(s, _mm256_loadu_ps(x)));
        o1 = _mm256_add_ps(o1, _mm256_mul_ps(s, _mm256_loadu_ps(x + 8)));
        o2 = _mm256_add_ps(o2, _mm256_mul_ps(s, _mm256_loadu_ps(x + 16)));
        o3 = _mm256_add_ps(o3, _mm256_mul_ps(s, _mm256_loadu_ps(x + 24)));
        o4 = _mm256_add_ps(o4, _mm256_mul_ps(s, _mm256_loadu_ps(x + 32)));
        o5 = _mm256_add_ps(o5, _mm256_mul_ps(s, _mm256_loadu_ps(x + 40)));
        o6 = _mm256_add_ps(o6, _mm256_mul_ps(s, _mm256_loadu_ps(x + 48)));
        o7 = _mm256_add_ps(o7, _mm256_mul_ps(s, _mm256_loadu_ps(x + 56)));
      }
      _mm256_storeu_ps(out + j, o0);
      _mm256_storeu_ps(out + j + 8, o1);
      _mm256_storeu_ps(out + j + 16, o2);
      _mm256_storeu_ps(out + j + 24, o3);
      _mm256_storeu_ps(out + j + 32, o4);
      _mm256_storeu_ps(out + j + 40, o5);
      _mm256_storeu_ps(out + j + 48, o6);
      _mm256_storeu_ps(out + j + 56, o7);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 o = _mm256_loadu_ps(out + j);
      for (std::size_t q = 0; q < nz; ++q)
        o = _mm256_add_ps(o, _mm256_mul_ps(_mm256_set1_ps(c[q]), _mm256_loadu_ps(r[q] + j)));
      _mm256_storeu_ps(out + j, o);
    }
    for (; j < n; ++j) {
      float o = out[j];
      for (std::size_t q = 0; q < nz; ++q) o += c[q] * r[q][j];
      out[j] = o;
    }
  }
}

// adam_scalar four elements at a time: the same double-precision multiplies
// and adds, the same float roundings of the moments (re-read as floats, as
// the scalar loop re-reads m[i] and v[i]), IEEE vdivpd and vsqrtpd, and the
// update subtracted in float. The last n % 4 elements run adam_scalar.
__attribute__((target("avx2"))) void adam_avx2(float* w, const float* g, float* m, float* v,
                                               std::size_t n, const detail::AdamStep& step) {
  const __m256d beta1 = _mm256_set1_pd(detail::kAdamBeta1);
  const __m256d rest1 = _mm256_set1_pd(1.0 - detail::kAdamBeta1);
  const __m256d beta2 = _mm256_set1_pd(detail::kAdamBeta2);
  const __m256d rest2 = _mm256_set1_pd(1.0 - detail::kAdamBeta2);
  const __m256d scale = _mm256_set1_pd(step.scale);
  const __m256d bias1 = _mm256_set1_pd(step.bias1);
  const __m256d bias2 = _mm256_set1_pd(step.bias2);
  const __m256d rate = _mm256_set1_pd(step.learning_rate);
  const __m256d eps = _mm256_set1_pd(detail::kAdamEps);
  // From t = 356 on, 1 - 0.9^t rounds to 1.0, and x / 1.0 == x for every
  // double, so the division can go.
  const bool divide1 = step.bias1 != 1.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d grad = _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(g + i)), scale);
    const __m128 mf = _mm256_cvtpd_ps(_mm256_add_pd(
        _mm256_mul_pd(beta1, _mm256_cvtps_pd(_mm_loadu_ps(m + i))), _mm256_mul_pd(rest1, grad)));
    const __m128 vf = _mm256_cvtpd_ps(
        _mm256_add_pd(_mm256_mul_pd(beta2, _mm256_cvtps_pd(_mm_loadu_ps(v + i))),
                      _mm256_mul_pd(_mm256_mul_pd(rest2, grad), grad)));
    _mm_storeu_ps(m + i, mf);
    _mm_storeu_ps(v + i, vf);
    __m256d mhat = _mm256_cvtps_pd(mf);
    if (divide1) mhat = _mm256_div_pd(mhat, bias1);
    const __m256d vhat = _mm256_div_pd(_mm256_cvtps_pd(vf), bias2);
    const __m256d update = _mm256_div_pd(_mm256_mul_pd(rate, mhat),
                                         _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm_storeu_ps(w + i, _mm_sub_ps(_mm_loadu_ps(w + i), _mm256_cvtpd_ps(update)));
  }
  adam_scalar(w + i, g + i, m + i, v + i, n - i, step);
}
#endif

#ifdef WF_SIMD_HAVE_NEON
// Two 4-float registers = lanes 0-3 and 4-7. vmulq + vaddq, not vmlaq: the
// fused multiply-add would change the rounding vs the scalar kernel.
float dot_neon(const float* a, const float* b, std::size_t k) {
  float32x4_t lo = vdupq_n_f32(0.0f);
  float32x4_t hi = vdupq_n_f32(0.0f);
  const std::size_t k8 = k & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < k8; i += 8) {
    lo = vaddq_f32(lo, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
    hi = vaddq_f32(hi, vmulq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4)));
  }
  float lane[8];
  vst1q_f32(lane, lo);
  vst1q_f32(lane + 4, hi);
  float tail = 0.0f;
  for (std::size_t i = k8; i < k; ++i) tail += a[i] * b[i];
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7])) + tail;
}
#endif

// One query against n rows, one per-pair kernel call each: the scalar and
// NEON row kernels, which have no register tile.
template <detail::DotFn Dot>
void dot_rows_each(const float* a, const float* b, std::size_t n, std::size_t k, float* out) {
  for (std::size_t j = 0; j < n; ++j) out[j] = Dot(a, b + j * k, k);
}

SimdMode resolve_mode() {
  const std::string requested = util::Env::simd();
  if (requested == "scalar") return SimdMode::kScalar;
  if (requested == "avx2" || requested == "neon") {
    const SimdMode mode = requested == "avx2" ? SimdMode::kAvx2 : SimdMode::kNeon;
    if (simd_supported(mode)) return mode;
    util::log_warn() << "WF_SIMD=" << requested
                     << " is not supported on this machine; falling back to scalar";
    return SimdMode::kScalar;
  }
  if (requested != "auto")
    util::log_warn() << "WF_SIMD=\"" << requested << "\" is not a known mode; using auto";
  if (simd_supported(SimdMode::kAvx2)) return SimdMode::kAvx2;
  if (simd_supported(SimdMode::kNeon)) return SimdMode::kNeon;
  return SimdMode::kScalar;
}

std::atomic<int>& cached_mode() {
  static std::atomic<int> mode{-1};
  return mode;
}

}  // namespace

const char* simd_mode_name(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAvx2:
      return "avx2";
    case SimdMode::kNeon:
      return "neon";
    case SimdMode::kScalar:
      break;
  }
  return "scalar";
}

bool simd_supported(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar:
      return true;
    case SimdMode::kAvx2:
#ifdef WF_SIMD_HAVE_AVX2
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdMode::kNeon:
#ifdef WF_SIMD_HAVE_NEON
      return true;  // NEON is baseline on every AArch64 CPU
#else
      return false;
#endif
  }
  return false;
}

std::vector<SimdMode> supported_simd_modes() {
  std::vector<SimdMode> modes{SimdMode::kScalar};
  if (simd_supported(SimdMode::kAvx2)) modes.push_back(SimdMode::kAvx2);
  if (simd_supported(SimdMode::kNeon)) modes.push_back(SimdMode::kNeon);
  return modes;
}

SimdMode simd_mode() {
  int mode = cached_mode().load(std::memory_order_acquire);
  if (mode < 0) {
    mode = static_cast<int>(resolve_mode());
    cached_mode().store(mode, std::memory_order_release);
  }
  return static_cast<SimdMode>(mode);
}

bool set_simd_mode(SimdMode mode) {
  if (!simd_supported(mode)) return false;
  cached_mode().store(static_cast<int>(mode), std::memory_order_release);
  return true;
}

float simd_dot(const float* a, const float* b, std::size_t k) {
  return detail::dot_kernel(simd_mode())(a, b, k);
}

namespace detail {

DotFn dot_kernel(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAvx2:
#ifdef WF_SIMD_HAVE_AVX2
      return &dot_avx2;
#else
      break;
#endif
    case SimdMode::kNeon:
#ifdef WF_SIMD_HAVE_NEON
      return &dot_neon;
#else
      break;
#endif
    case SimdMode::kScalar:
      break;
  }
  return &dot_scalar;
}

DotRowsFn dot_rows_kernel(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAvx2:
#ifdef WF_SIMD_HAVE_AVX2
      return &dot_rows_avx2;
#else
      break;
#endif
    case SimdMode::kNeon:
#ifdef WF_SIMD_HAVE_NEON
      return &dot_rows_each<&dot_neon>;
#else
      break;
#endif
    case SimdMode::kScalar:
      break;
  }
  return &dot_rows_each<&dot_scalar>;
}

AxpyRowsFn axpy_rows_kernel(SimdMode mode) {
#ifdef WF_SIMD_HAVE_AVX2
  if (mode == SimdMode::kAvx2) return &axpy_rows_avx2;
#endif
  (void)mode;
  return &axpy_rows_scalar;
}

SquaredDistancesFn squared_distances_kernel(SimdMode mode) {
#ifdef WF_SIMD_HAVE_AVX2
  if (mode == SimdMode::kAvx2) return &squared_distances_avx2;
#endif
  (void)mode;
  return &squared_distances_scalar;
}

ArgminMarginFn argmin_margin_kernel(SimdMode mode) {
#ifdef WF_SIMD_HAVE_AVX2
  if (mode == SimdMode::kAvx2) return &argmin_margin_avx2;
#endif
  (void)mode;
  return &argmin_margin_scalar;
}

AdamFn adam_kernel(SimdMode mode) {
#ifdef WF_SIMD_HAVE_AVX2
  if (mode == SimdMode::kAvx2) return &adam_avx2;
#endif
  (void)mode;
  return &adam_scalar;
}

}  // namespace detail

}  // namespace wf::nn
