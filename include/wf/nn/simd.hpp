#pragma once

// Runtime-dispatched SIMD distance kernels. The hot dot product behind
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
// kernel. Rows past the last full tile, and the scalar and NEON modes, call
// the per-pair kernel for every row.

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
}  // namespace detail

}  // namespace wf::nn
