#pragma once

// Runtime-dispatched SIMD kernels. The hot dot product behind
// gemm_nt_serial / matmul_transposed comes in three flavours — scalar (the
// original eight-lane form), AVX2 and NEON — selected once per process from
// WF_SIMD=auto|avx2|neon|scalar (auto picks the widest supported unit).
//
// All three compute the same operation sequence: eight independent float
// accumulator lanes (mul then add, never fused) reduced as
// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) + tail. That makes the vector paths
// bit-identical to the scalar path, which in turn is bit-identical to every
// result the project has ever produced — WF_SIMD is a speed knob, not an
// accuracy knob, and CI diffs the modes against each other to prove it.
//
// gemm_nt_serial runs on the row kernels below (one query against n
// reference rows, dispatched once per call). Under AVX2 they use a register
// tile of 1 query x 8 rows: each row keeps its own 8-lane accumulator, the
// query is loaded once per tile, and the eight reductions run in registers —
// hadd(hadd(acc0, acc1), hadd(acc2, acc3)) and its rows 4-7 twin give every
// row's (l0+l1)+(l2+l3) and (l4+l5)+(l6+l7) halves, permute2f128 lines the
// halves up, one add joins them and a second adds the scalar tail. That is
// the same tree as above, so the tile is bit-identical to the per-pair
// kernel. When k is a multiple of 8 there is no scalar tail, and the tile
// adds a zero register instead: that is the oracle's "+ tail" with tail =
// +0.0f, so a -0.0 sum still comes out +0.0. Rows past the last full tile,
// and the scalar and NEON modes, call the per-pair kernel for every row.
//
// The training kernels follow the same rule: one scalar loop is the
// WF_SIMD=scalar oracle and the AVX2 twin replays its operations exactly.
//   - AxpyRowsFn, behind matmul and matmul_at_b (the backward pass): for
//     each output element, the coefficients are added in index order, each
//     as one multiply then one add (never fused), and a coefficient that
//     compares equal to zero skips its whole row. The skip is part of the
//     result, not a shortcut: it keeps a -0.0 output and keeps 0 * inf or
//     0 * NaN out of the sum. Under AVX2 the kernel first compacts the
//     non-zero coefficients (gradients are sparse: ReLU zeros, and pairs
//     without loss give all-zero rows), then adds them into 64-column
//     register tiles, then 8-column tiles. Leftover columns run the scalar
//     sequence. The vectors only run across output columns, so no
//     element's summation order changes.
//   - AdamFn, behind Mlp::adam_step: one Adam update per element in double
//     precision. The AVX2 twin does four elements at a time with the same
//     float -> double -> float conversions, separate multiplies and adds,
//     and IEEE division and square root (vdivpd, vsqrtpd), which round like
//     their scalar forms. Once the first bias correction is exactly 1.0
//     (t >= 356) it skips that division, since x / 1.0 == x.
// The NEON mode runs the scalar training kernels.
//
// The IVF build's k-means++ seeding has a kernel of its own.
//   - SquaredDistancesFn: the squared distance of every training sample
//     from the last chosen centroid. The samples are stored column-major,
//     so each sample has its own lane. Each lane replays
//     nn::squared_distance: it starts at 0.0 and adds d * d, with
//     d = double(x[i]) - double(c[i]), for i = 0 .. dim - 1, one multiply
//     then one add. The AVX2 twin keeps four samples per register; NEON runs
//     the scalar loop.
//
// The IVF nearest-centroid assignment has one too.
//   - ArgminMarginFn: the cluster c of least margin norms[c] - 2 * dots[c]
//     (dots widened to double, one multiply then one subtract). Ties go to
//     the lowest index, and +0.0 and -0.0 tie. A NaN margin never wins,
//     except that a NaN margin(0) makes the answer 0. The scalar loop keeps
//     the running least under strict <. The AVX2 twin takes the least
//     margin with vminpd (which keeps the running value when the new one
//     is NaN), then returns the first index whose margin equals it. NEON
//     runs the scalar loop.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace wf::nn {

enum class SimdMode : std::uint8_t { kScalar = 0, kAvx2 = 1, kNeon = 2 };

const char* simd_mode_name(SimdMode mode);

// True when this build + CPU can execute `mode` (kScalar always can).
bool simd_supported(SimdMode mode);

// Every mode simd_supported() accepts, scalar first.
std::vector<SimdMode> supported_simd_modes();

// The active mode: resolved from WF_SIMD on first use and cached. An
// unsupported or unknown request logs a warning and falls back to scalar,
// so a pinned WF_SIMD never aborts a run on older hardware.
SimdMode simd_mode();

// Test/bench override of the cached mode. Returns false (and changes
// nothing) when the mode is not supported on this machine.
bool set_simd_mode(SimdMode mode);

// Dot product of two length-k float vectors under the active mode.
float simd_dot(const float* a, const float* b, std::size_t k);

namespace detail {
using DotFn = float (*)(const float*, const float*, std::size_t);
// Kernel for an explicit mode (callers hoist this out of their loops).
DotFn dot_kernel(SimdMode mode);

// out[j] = <a, b_j> for the n rows b_j = b + j * k, each bit-identical to
// the mode's DotFn on that pair.
using DotRowsFn = void (*)(const float* a, const float* b, std::size_t n, std::size_t k,
                           float* out);
DotRowsFn dot_rows_kernel(SimdMode mode);

// out[j] += coef[t * coef_stride] * rows[t * n + j] for t = 0 .. count - 1
// in order and every j < n, skipping each t whose coefficient == 0.0f.
using AxpyRowsFn = void (*)(const float* coef, std::size_t coef_stride, std::size_t count,
                            const float* rows, std::size_t n, float* out);
AxpyRowsFn axpy_rows_kernel(SimdMode mode);

// out[s] = nn::squared_distance(x_s, point) for the n samples x_s of a
// column-major block: dimension i of sample s is cols[i * n + s].
using SquaredDistancesFn = void (*)(const float* cols, std::size_t n, const float* point,
                                    std::size_t dim, double* out);
SquaredDistancesFn squared_distances_kernel(SimdMode mode);

// The least-margin cluster of n >= 1 clusters, margin(c) = norms[c] -
// 2 * double(dots[c]); see above for ties and NaN.
using ArgminMarginFn = std::size_t (*)(const double* norms, const float* dots, std::size_t n);
ArgminMarginFn argmin_margin_kernel(SimdMode mode);

// The optimizer's fixed Adam hyper-parameters.
inline constexpr double kAdamBeta1 = 0.9;
inline constexpr double kAdamBeta2 = 0.999;
inline constexpr double kAdamEps = 1e-8;

// What changes from one Adam step to the next: `scale` turns the
// accumulated gradient into a mean, and bias1 = 1 - kAdamBeta1^t and
// bias2 = 1 - kAdamBeta2^t are the moment bias corrections of step t.
struct AdamStep {
  double learning_rate, scale, bias1, bias2;
};
// Updates the n parameters w from their accumulated gradients g and their
// moments m and v (see Mlp::adam_step).
using AdamFn = void (*)(float* w, const float* g, float* m, float* v, std::size_t n,
                        const AdamStep& step);
AdamFn adam_kernel(SimdMode mode);
}  // namespace detail

}  // namespace wf::nn
