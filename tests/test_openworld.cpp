// OpenWorldDetector: calibration hits the target TPR on monitored samples
// and rejects far-away unmonitored embeddings; the calibration index is
// robust to floating-point rounding; querying before calibrate() throws;
// wrong-width embeddings throw; a neighbour clamp is surfaced instead of
// silently degrading.
#include "core/openworld.hpp"

#include <stdexcept>

#include "core/sharded_reference_set.hpp"
#include "test_common.hpp"
#include "util/rng.hpp"

namespace {

// One reference at the origin: with neighbour = 1 the k-th-neighbour
// distance of a sample at x is exactly |x|, so thresholds are predictable.
wf::core::ShardedReferenceSet origin_ref() {
  wf::core::ShardedReferenceSet refs(1);
  refs.add(std::vector<float>{0.0f}, 0);
  return refs;
}

}  // namespace

int main() {
  using namespace wf;

  util::Rng rng(3);
  const std::size_t dim = 4;

  // Monitored references: 5 tight clusters around distinct centers.
  core::ShardedReferenceSet refs(dim);
  std::vector<std::vector<float>> centers;
  for (int c = 0; c < 5; ++c) {
    std::vector<float> center(dim);
    for (auto& x : center) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    centers.push_back(center);
    for (int s = 0; s < 10; ++s) {
      std::vector<float> e = center;
      for (auto& x : e) x += static_cast<float>(rng.normal(0.0, 0.05));
      refs.add(e, c);
    }
  }

  // Monitored eval samples: same clusters. Unmonitored: far away.
  nn::Matrix monitored(50, dim), unmonitored(50, dim);
  for (std::size_t i = 0; i < 50; ++i) {
    std::vector<float> m = centers[i % 5];
    for (auto& x : m) x += static_cast<float>(rng.normal(0.0, 0.05));
    monitored.set_row(i, m);
    std::vector<float> u(dim);
    for (auto& x : u) x = static_cast<float>(rng.uniform(4.0, 6.0));
    unmonitored.set_row(i, u);
  }

  core::OpenWorldDetector detector({.neighbour = 3, .target_tpr = 0.9});
  detector.calibrate(refs, monitored);
  CHECK(detector.threshold() > 0.0);

  const core::OpenWorldMetrics m = detector.evaluate(refs, monitored, unmonitored);
  // Calibration guarantee: at least the target TPR on the calibration set.
  CHECK(m.true_positive_rate >= 0.9);
  // The far-away open world must be rejected wholesale here.
  CHECK(m.false_positive_rate < 0.05);
  CHECK(m.precision > 0.9);

  // A detector calibrated for higher TPR has a looser (>=) threshold.
  core::OpenWorldDetector stricter({.neighbour = 3, .target_tpr = 0.5});
  stricter.calibrate(refs, monitored);
  CHECK(stricter.threshold() <= detector.threshold());

  // --- Calibration index at exactly-representable boundaries. With 100
  // samples at distances 1..100, target_tpr = h/100 must select the h-th
  // sample. Naive ceil(tpr * n) overshoots whenever the product rounds just
  // above the integer — at n = 100 that is h ∈ {7, 14, 28, 55, 56}
  // (0.07 * 100 = 7.0000000000000009 → ceil 8) — reporting TPR above
  // target and silently inflating FPR. (n = 10 has no such case: every
  // tenths * 10 product is IEEE-exact, so a 10-sample sweep cannot catch
  // this bug.)
  {
    const core::ShardedReferenceSet one = origin_ref();
    const std::size_t n = 100;
    nn::Matrix samples(n, 1);
    for (std::size_t i = 0; i < n; ++i)
      samples(i, 0) = static_cast<float>(i + 1);  // distances 1..100
    for (std::size_t h = 1; h <= n; ++h) {
      const double tpr = static_cast<double>(h) / 100.0;
      core::OpenWorldDetector d({.neighbour = 1, .target_tpr = tpr});
      d.calibrate(one, samples);
      // Threshold sits on the h-th sample, within the 1e-9 slack.
      CHECK_NEAR(d.threshold(), static_cast<double>(h), 1e-6);
      const core::OpenWorldMetrics exact = d.evaluate(one, samples, nn::Matrix(0, 1));
      CHECK_NEAR(exact.true_positive_rate, tpr, 1e-12);  // not a sample more
    }
  }

  // --- Querying an uncalibrated detector throws instead of silently
  // accepting everything (threshold_ = 1e300 would classify any trace as
  // monitored).
  {
    const core::OpenWorldDetector raw({.neighbour = 3, .target_tpr = 0.9});
    CHECK(!raw.calibrated());
    bool threw = false;
    try {
      raw.is_monitored(refs, std::vector<float>(4, 0.0f));
    } catch (const std::logic_error&) {
      threw = true;
    }
    CHECK(threw);
    threw = false;
    try {
      raw.evaluate(refs, monitored, unmonitored);
    } catch (const std::logic_error&) {
      threw = true;
    }
    CHECK(threw);
    threw = false;
    try {
      (void)raw.threshold();
    } catch (const std::logic_error&) {
      threw = true;
    }
    CHECK(threw);
    // kth_distances is a raw distance computation and needs no calibration.
    CHECK(raw.kth_distances(refs, monitored).size() == monitored.rows());
    CHECK(detector.calibrated());
  }

  // --- Wrong-width embeddings are rejected instead of read past their end:
  // kth_distances checks the matrix width, and is_monitored (a one-row
  // kth_distances) checks the span's, too short or too long.
  {
    const auto throws_invalid = [](const auto& call) {
      try {
        call();
      } catch (const std::invalid_argument&) {
        return true;
      }
      return false;
    };
    CHECK(throws_invalid([&] { (void)detector.kth_distances(refs, nn::Matrix(3, 2)); }));
    CHECK(throws_invalid(
        [&] { (void)detector.is_monitored(refs, std::vector<float>(2, 0.0f)); }));
    CHECK(throws_invalid(
        [&] { (void)detector.is_monitored(refs, std::vector<float>(dim + 3, 0.0f)); }));
  }

  // --- Neighbour clamp: fewer references than `neighbour` is surfaced in
  // the metrics instead of silently degrading the detector.
  {
    core::ShardedReferenceSet three(1);
    for (int i = 0; i < 3; ++i) three.add(std::vector<float>{static_cast<float>(i)}, i);
    nn::Matrix samples(4, 1);
    for (std::size_t i = 0; i < 4; ++i) samples(i, 0) = static_cast<float>(i);

    core::OpenWorldDetector clamped({.neighbour = 5, .target_tpr = 0.9});
    CHECK(!clamped.neighbour_clamp_fired());
    clamped.calibrate(three, samples);
    CHECK(clamped.neighbour_clamp_fired());
    CHECK(clamped.evaluate(three, samples, nn::Matrix(0, 1)).neighbour_clamped);

    core::OpenWorldDetector unclamped({.neighbour = 3, .target_tpr = 0.9});
    unclamped.calibrate(three, samples);
    CHECK(!unclamped.neighbour_clamp_fired());
    CHECK(!unclamped.evaluate(three, samples, nn::Matrix(0, 1)).neighbour_clamped);
  }

  return TEST_MAIN_RESULT();
}
