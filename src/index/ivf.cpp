#include "index/ivf.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "nn/matrix.hpp"
#include "nn/simd.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wf::index {

namespace {

// The ranking key of cluster c for a row with dot products `dots`:
// margin(c) = ‖c‖² − 2·<row, c>, i.e. ‖row − c‖² without the constant ‖row‖².
// nn::detail::ArgminMarginFn ranks by the same formula.
double margin(const double* norms, const float* dots, std::size_t c) {
  return norms[c] - 2.0 * static_cast<double>(dots[c]);
}

}  // namespace

namespace detail {

void nearest_centroids(const float* row, const float* centroids, const double* norms,
                       std::size_t n, std::size_t dim, std::size_t count,
                       std::vector<std::size_t>& out) {
  out.clear();
  if (count >= n) {
    for (std::size_t c = 0; c < n; ++c) out.push_back(c);
    return;
  }
  if (count == 0) return;
  thread_local std::vector<float> dots;
  dots.resize(n);
  nn::gemm_nt_serial(row, 1, centroids, n, dim, dots.data());
  // The dispatched argmin keeps the lowest index on ties, exactly as the
  // (margin, cluster) pair order below does.
  if (count == 1) {
    out.push_back(nn::detail::argmin_margin_kernel(nn::simd_mode())(norms, dots.data(), n));
    return;
  }
  thread_local std::vector<std::pair<double, std::size_t>> ranked;
  ranked.resize(n);
  for (std::size_t c = 0; c < n; ++c) ranked[c] = {margin(norms, dots.data(), c), c};
  // pair's lexicographic < breaks margin ties toward the lower cluster.
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(count),
                    ranked.end());
  for (std::size_t p = 0; p < count; ++p) out.push_back(ranked[p].second);
}

}  // namespace detail

namespace {

constexpr std::size_t kAssignTile = 256;  // rows per centroid-assignment GEMM

// The k-means++ seeding splits its training sample into blocks of
// kSeedBlock samples once sample x dim reaches kSeedSplitMin floats, and
// runs each round's blocks on the pool. An interleaved sweep of the round
// loop at dim 32 (4-vCPU x86-64 host, AVX2, 4-thread pool; median of 15):
// at 2,048 samples one block is no slower (1.63 ms, 256-sample blocks
// 1.66, larger blocks 20-40 % slower); blocks win from 4,096 samples on
// (6.1 -> 4.4 ms, 8,192: 23 -> 12 ms, 16,384: 80 -> 36 ms), 256-sample
// blocks by up to 15 % over 512 or 1,024.
constexpr std::size_t kSeedBlock = 256;
constexpr std::size_t kSeedSplitMin = 4096 * 32;

// Nearest-centroid assignment of the `n` rows row_at(0..n), GEMM-tiled
// (each tile gathered into one contiguous block) and parallel over the
// pool; each row's answer is schedule-independent.
template <typename RowAt>
void assign_rows(RowAt row_at, std::size_t n, std::size_t dim, const float* centroids,
                 const double* centroid_norms, std::size_t n_centroids,
                 std::vector<std::size_t>& out) {
  out.resize(n);
  const nn::detail::ArgminMarginFn argmin = nn::detail::argmin_margin_kernel(nn::simd_mode());
  util::global_pool().parallel_blocks(0, n, kAssignTile, [&](std::size_t lo, std::size_t hi) {
    thread_local util::AlignedVector<float> tile;
    thread_local std::vector<float> dots;
    for (std::size_t t0 = lo; t0 < hi; t0 += kAssignTile) {
      const std::size_t t1 = std::min(hi, t0 + kAssignTile);
      tile.resize((t1 - t0) * dim);
      for (std::size_t i = t0; i < t1; ++i)
        std::copy_n(row_at(i), dim, tile.data() + (i - t0) * dim);
      dots.resize((t1 - t0) * n_centroids);
      nn::gemm_nt_serial(tile.data(), t1 - t0, centroids, n_centroids, dim, dots.data());
      for (std::size_t i = t0; i < t1; ++i)
        out[i] = argmin(centroid_norms, dots.data() + (i - t0) * n_centroids, n_centroids);
    }
  });
}

}  // namespace

IvfReferenceStore::IvfReferenceStore(const core::ReferenceStore& base, const IvfConfig& config,
                                     std::uint64_t next_row_id)
    : config_(config), dim_(base.dim()), next_row_id_(next_row_id) {
  // The rows stay in `base`: the build copies only the training sample and
  // then each row once, into its cell.
  const std::vector<core::RowRef> rows = core::rows_by_id(base);
  const std::size_t n = rows.size();
  if (n > 0) next_row_id_ = std::max(next_row_id_, rows.back().row_id + 1);

  std::size_t n_clusters;
  if (config_.clusters > 0)
    n_clusters = std::min(config_.clusters, std::max<std::size_t>(n, 1));
  else
    n_clusters = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::lround(std::sqrt(static_cast<double>(n)))), 1,
        std::max<std::size_t>(n, 1));

  centroids_.assign(n_clusters * dim_, 0.0f);
  std::vector<double> centroid_norms(n_clusters, 0.0);  // cached ‖c‖² per centroid
  cells_.assign(n_clusters, {});
  size_ = n;
  if (n == 0) return;

  util::Rng rng(config_.seed);

  // Training sample: a seeded partial shuffle of the row indices. The
  // centroids are trained on at most kSamplePerCluster rows per cluster;
  // assignment below always covers every row.
  const std::size_t sample = std::min(n, n_clusters * kSamplePerCluster);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = 0; i < sample; ++i)
    std::swap(order[i], order[i + rng.index(n - i)]);
  util::AlignedVector<float> train(sample * dim_);
  for (std::size_t s = 0; s < sample; ++s)
    std::copy_n(rows[order[s]].data, dim_, train.data() + s * dim_);

  // k-means++ init over the sample: each next centroid is drawn with
  // probability proportional to its squared distance from the chosen set.
  // A round's distances come from the seeding kernel (nn/simd.hpp), one
  // lane per sample, each lane exactly nn::squared_distance. The kernel
  // reads the sample as blocks of `block` samples (the last one shorter),
  // each block column-major on its own: dimension i of sample s0 + j in the
  // block at s0 is cols[s0 * dim + i * n_b + j]. A sample below
  // kSeedSplitMin is one block, one kernel call per round on this thread.
  // Otherwise each round runs the blocks on the pool, and each block
  // min-updates its own d2 entries after its kernel call. Lanes do not
  // interact, so d2 is the same for every split. The running total and the
  // rng draw stay serial in sample order, and the pick searches the total's
  // partial sums, so each draw is the serial loop's.
  {
    const std::size_t block = sample * dim_ >= kSeedSplitMin ? kSeedBlock : sample;
    const std::size_t n_blocks = (sample + block - 1) / block;
    util::AlignedVector<float> cols(dim_ * sample);
    for (std::size_t s0 = 0; s0 < sample; s0 += block) {
      const std::size_t n_b = std::min(block, sample - s0);
      float* dst = cols.data() + s0 * dim_;
      for (std::size_t j = 0; j < n_b; ++j)
        for (std::size_t d = 0; d < dim_; ++d) dst[d * n_b + j] = train[(s0 + j) * dim_ + d];
    }
    const nn::detail::SquaredDistancesFn distances =
        nn::detail::squared_distances_kernel(nn::simd_mode());
    std::vector<double> dist(sample);
    std::vector<double> d2(sample, 1e300);
    const std::size_t first = rng.index(sample);
    std::copy_n(train.data() + first * dim_, dim_, centroids_.data());
    for (std::size_t c = 1; c < n_clusters; ++c) {
      const float* point = centroids_.data() + (c - 1) * dim_;
      util::global_pool().parallel_blocks(0, n_blocks, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t b = lo; b < hi; ++b) {
          const std::size_t s0 = b * block, s1 = std::min(sample, s0 + block);
          distances(cols.data() + s0 * dim_, s1 - s0, point, dim_, dist.data() + s0);
          for (std::size_t s = s0; s < s1; ++s)
            if (dist[s] < d2[s]) d2[s] = dist[s];
        }
      });
      // The running total's partial sums are the cumulative sums of the
      // serial pick (the same adds in the same order), so `dist` keeps them
      // and the pick is the first sample whose sum reaches r. They never
      // fall, since d2 is never NaN or negative. A NaN r (0 * inf) is
      // reached by no sum, lower_bound returns the first sample, and the
      // pick is 0, as in the serial scan.
      double total = 0.0;
      for (std::size_t s = 0; s < sample; ++s) {
        total += d2[s];
        dist[s] = total;
      }
      std::size_t pick = 0;
      if (total > 0.0) {
        const double r = rng.uniform() * total;
        const auto hit = std::lower_bound(dist.begin(), dist.end(), r);
        if (hit != dist.end()) pick = static_cast<std::size_t>(hit - dist.begin());
      } else {
        pick = rng.index(sample);  // all-duplicate corner: any row works
      }
      std::copy_n(train.data() + pick * dim_, dim_, centroids_.data() + c * dim_);
    }
  }
  for (std::size_t c = 0; c < n_clusters; ++c)
    centroid_norms[c] = nn::squared_norm(centroids_.data() + c * dim_, dim_);

  // Lloyd iterations on the sample: GEMM-tiled assignment, then serial
  // mean update in sample order (double accumulation) — deterministic at
  // any thread count. An emptied cluster keeps its previous centroid.
  std::vector<std::size_t> assign;
  std::vector<double> sums(n_clusters * dim_);
  std::vector<std::size_t> counts(n_clusters);
  const auto train_row = [&](std::size_t s) { return train.data() + s * dim_; };
  for (std::size_t iter = 0; iter < kKmeansIters; ++iter) {
    assign_rows(train_row, sample, dim_, centroids_.data(), centroid_norms.data(), n_clusters,
                assign);
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), std::size_t{0});
    for (std::size_t s = 0; s < sample; ++s) {
      double* sum = sums.data() + assign[s] * dim_;
      const float* row = train.data() + s * dim_;
      for (std::size_t d = 0; d < dim_; ++d) sum[d] += static_cast<double>(row[d]);
      ++counts[assign[s]];
    }
    for (std::size_t c = 0; c < n_clusters; ++c) {
      if (counts[c] == 0) continue;
      float* centroid = centroids_.data() + c * dim_;
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (std::size_t d = 0; d < dim_; ++d)
        centroid[d] = static_cast<float>(sums[c * dim_ + d] * inv);
      centroid_norms[c] = nn::squared_norm(centroid, dim_);
    }
  }

  // Final pass: assign every row and fill the cells in insertion order, so
  // within a cell rows keep their global (dist, insertion-id) tie-break
  // order and class ids are dense in first-appearance order. Each cell is
  // sized from the assignment first, and each row keeps its source ‖r‖².
  assign_rows([&](std::size_t i) { return rows[i].data; }, n, dim_, centroids_.data(),
              centroid_norms.data(), n_clusters, assign);
  std::fill(counts.begin(), counts.end(), std::size_t{0});
  for (std::size_t i = 0; i < n; ++i) ++counts[assign[i]];
  for (std::size_t c = 0; c < n_clusters; ++c) cells_[c].reserve(counts[c], dim_);
  for (std::size_t i = 0; i < n; ++i)
    cells_[assign[i]].append({rows[i].data, dim_}, rows[i].sq_norm, ids_.intern(rows[i].label),
                             rows[i].row_id);
}

}  // namespace wf::index
