#include "core/openworld.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scan_tiles.hpp"
#include "util/log.hpp"

namespace wf::core {

void OpenWorldDetector::require_calibrated(const char* what) const {
  if (!calibrated_)
    throw std::logic_error(std::string("OpenWorldDetector::") + what +
                           ": calibrate() must run first (an uncalibrated threshold would "
                           "accept every sample as monitored)");
}

void OpenWorldDetector::note_neighbour_clamp(std::size_t rows) const {
  if (!clamp_fired_.exchange(true))
    util::log_warn() << "OpenWorldDetector: reference set has " << rows
                     << " row(s), fewer than neighbour=" << config_.neighbour
                     << "; clamping to the farthest available neighbour "
                        "(metrics will report neighbour_clamped)";
}

std::vector<double> OpenWorldDetector::kth_distances(const ReferenceStore& references,
                                                     const nn::Matrix& embeddings) const {
  const std::size_t m = embeddings.rows();
  const std::size_t n = references.size();
  std::vector<double> result(m, 1e300);
  if (m == 0) return result;
  const std::size_t neighbour = static_cast<std::size_t>(std::max(1, config_.neighbour));
  if (n < neighbour) note_neighbour_clamp(n);
  if (n == 0) return result;
  if (embeddings.cols() != references.dim())
    throw std::invalid_argument("OpenWorldDetector::kth_distances: width mismatch");
  const std::size_t k = std::min(neighbour, n);

  // Each query's k smallest distances over every row it scans: the heap top
  // is the k-th. A pruned probe can cover fewer than k rows, in which case
  // the farthest covered neighbour stands in, and an empty probe means
  // "nowhere near" (1e300).
  detail::for_each_tile<false>(
      references, embeddings.data(), m, k, 0, 1,
      [&](std::size_t t0, std::size_t rows, detail::TileScan& sc) {
        for (std::size_t q = 0; q < rows; ++q) {
          const std::vector<Candidate>& heap = sc.heaps[q];
          result[t0 + q] = std::sqrt(heap.empty() ? kFar : heap.front().first);
        }
      });
  return result;
}

void OpenWorldDetector::calibrate(const ReferenceStore& references,
                                  const nn::Matrix& monitored_samples) {
  if (monitored_samples.rows() == 0)
    throw std::invalid_argument("OpenWorldDetector::calibrate: no monitored samples");
  std::vector<double> distances = kth_distances(references, monitored_samples);
  std::sort(distances.begin(), distances.end());
  // Smallest threshold accepting at least target_tpr of the monitored set.
  // ceil(tpr * n) computed naively overshoots whenever the product rounds
  // just above an integer (0.07 * 100 = 7.0000000000000009 → ceil 8), which
  // silently raises the operating point and inflates FPR; the epsilon keeps
  // exactly-representable boundaries exact.
  const double tpr = std::clamp(config_.target_tpr, 0.0, 1.0);
  const std::size_t n = distances.size();
  std::size_t idx = static_cast<std::size_t>(
      std::ceil(tpr * static_cast<double>(n) - 1e-9));
  idx = std::clamp<std::size_t>(idx, 1, n);
  threshold_ = distances[idx - 1] * (1.0 + 1e-9);
  calibrated_ = true;
}

bool OpenWorldDetector::is_monitored(const ReferenceStore& references,
                                     std::span<const float> embedding) const {
  require_calibrated("is_monitored");
  // A one-row kth_distances, which also checks the embedding's width.
  nn::Matrix row(1, embedding.size());
  row.set_row(0, embedding);
  return kth_distances(references, row).front() <= threshold_;
}

std::vector<PrPoint> OpenWorldDetector::precision_recall_sweep(
    const ReferenceStore& references, const nn::Matrix& monitored,
    const nn::Matrix& unmonitored, std::size_t max_points) const {
  std::vector<double> dm = kth_distances(references, monitored);
  std::vector<double> du = kth_distances(references, unmonitored);
  std::sort(dm.begin(), dm.end());
  std::sort(du.begin(), du.end());

  // Candidate thresholds: the union of both distance sets, subsampled
  // evenly — every achievable operating point lies on one of them.
  std::vector<double> candidates;
  candidates.reserve(dm.size() + du.size());
  candidates.insert(candidates.end(), dm.begin(), dm.end());
  candidates.insert(candidates.end(), du.begin(), du.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  if (candidates.empty()) return {};

  const std::size_t n_points = std::max<std::size_t>(1, std::min(max_points, candidates.size()));
  std::vector<PrPoint> points;
  points.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    // Evenly spaced ranks, always including the largest candidate.
    const std::size_t rank =
        n_points == 1 ? candidates.size() - 1
                      : i * (candidates.size() - 1) / (n_points - 1);
    PrPoint p;
    p.threshold = candidates[rank];
    const auto tp = static_cast<std::size_t>(
        std::upper_bound(dm.begin(), dm.end(), p.threshold) - dm.begin());
    const auto fp = static_cast<std::size_t>(
        std::upper_bound(du.begin(), du.end(), p.threshold) - du.begin());
    if (!dm.empty()) p.recall = static_cast<double>(tp) / static_cast<double>(dm.size());
    if (!du.empty())
      p.false_positive_rate = static_cast<double>(fp) / static_cast<double>(du.size());
    if (tp + fp > 0) p.precision = static_cast<double>(tp) / static_cast<double>(tp + fp);
    points.push_back(p);
  }
  return points;
}

OpenWorldMetrics OpenWorldDetector::evaluate(const ReferenceStore& references,
                                             const nn::Matrix& monitored,
                                             const nn::Matrix& unmonitored) const {
  require_calibrated("evaluate");
  OpenWorldMetrics metrics;
  metrics.threshold = threshold_;
  std::size_t tp = 0, fp = 0;
  for (const double d : kth_distances(references, monitored))
    if (d <= threshold_) ++tp;
  for (const double d : kth_distances(references, unmonitored))
    if (d <= threshold_) ++fp;
  if (monitored.rows() > 0)
    metrics.true_positive_rate = static_cast<double>(tp) / static_cast<double>(monitored.rows());
  if (unmonitored.rows() > 0)
    metrics.false_positive_rate =
        static_cast<double>(fp) / static_cast<double>(unmonitored.rows());
  if (tp + fp > 0)
    metrics.precision = static_cast<double>(tp) / static_cast<double>(tp + fp);
  metrics.neighbour_clamped = clamp_fired_.load();
  return metrics;
}

}  // namespace wf::core
