#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "core/reference_store.hpp"
#include "nn/matrix.hpp"

namespace wf::core {

struct OpenWorldConfig {
  int neighbour = 3;        // which nearest-reference distance to threshold
  double target_tpr = 0.95; // calibration: accept this fraction of monitored
};

// One operating point of the threshold sweep: accept-below-`threshold`
// applied to the k-th-neighbour distances of both sample sets.
struct PrPoint {
  double threshold = 0.0;
  double recall = 0.0;  // TPR on monitored samples
  double false_positive_rate = 0.0;
  double precision = 1.0;
};

struct OpenWorldMetrics {
  double true_positive_rate = 0.0;
  double false_positive_rate = 0.0;
  double precision = 1.0;
  double threshold = 0.0;
  // True when some query ran against fewer references than `neighbour`, so
  // the detector fell back to the farthest available neighbour. Numbers
  // produced under a clamp measure a weaker detector than configured.
  bool neighbour_clamped = false;
};

// Monitored-set membership test (§VI-C): a trace is "in world" when its
// distance to the `neighbour`-th nearest reference embedding is below a
// threshold calibrated for the target TPR on monitored samples. Distances
// run shard-by-shard against any ReferenceStore: each query keeps one heap
// of its `neighbour` smallest distances across every shard it scans, so the
// heap top is identical to one unsharded scan's k-th value. Query tiles are
// spread across the thread pool, and on an exhaustive store a batch of
// fewer tiles than threads splits each tile's shards into groups scanned
// in parallel, their heaps folded into one (core/scan_tiles.hpp).
//
// The detector must be calibrated before it can answer membership queries;
// is_monitored/evaluate/threshold throw std::logic_error until calibrate()
// has run (an uncalibrated threshold would silently accept every sample).
class OpenWorldDetector {
 public:
  explicit OpenWorldDetector(const OpenWorldConfig& config) : config_(config) {}

  void calibrate(const ReferenceStore& references, const nn::Matrix& monitored_samples);

  bool is_monitored(const ReferenceStore& references, std::span<const float> embedding) const;

  // k-th-neighbour distance for every row of `embeddings`.
  std::vector<double> kth_distances(const ReferenceStore& references,
                                    const nn::Matrix& embeddings) const;

  OpenWorldMetrics evaluate(const ReferenceStore& references, const nn::Matrix& monitored,
                            const nn::Matrix& unmonitored) const;

  // Per-threshold precision/recall: candidate thresholds are drawn from the
  // observed k-th-neighbour distances of both sets (subsampled evenly to at
  // most `max_points`, recall-monotone). Unlike evaluate() this needs no
  // prior calibrate() — it sweeps the whole operating curve at once.
  std::vector<PrPoint> precision_recall_sweep(const ReferenceStore& references,
                                              const nn::Matrix& monitored,
                                              const nn::Matrix& unmonitored,
                                              std::size_t max_points = 32) const;

  bool calibrated() const noexcept { return calibrated_; }
  double threshold() const {
    require_calibrated("threshold");
    return threshold_;
  }

  // Whether any query so far clamped `neighbour` to the reference count.
  bool neighbour_clamp_fired() const noexcept { return clamp_fired_.load(); }

 private:
  void require_calibrated(const char* what) const;
  void note_neighbour_clamp(std::size_t rows) const;

  OpenWorldConfig config_;
  double threshold_ = 1e300;
  bool calibrated_ = false;
  // Latched by const query paths (possibly from pool threads): a clamp is a
  // property of the queries the detector has seen, not of its configuration.
  mutable std::atomic<bool> clamp_fired_{false};
};

}  // namespace wf::core
