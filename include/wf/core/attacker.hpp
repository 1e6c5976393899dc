#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/embedding.hpp"
#include "core/knn.hpp"
#include "data/dataset.hpp"

namespace wf::io {
class Writer;
class Reader;
}  // namespace wf::io

namespace wf::core {

// Cumulative top-n accuracy curve.
class TopNCurve {
 public:
  TopNCurve() = default;
  explicit TopNCurve(std::vector<double> cumulative) : cumulative_(std::move(cumulative)) {}

  // Fraction of samples whose true label ranked within the first n guesses.
  double top(std::size_t n) const {
    if (cumulative_.empty() || n == 0) return 0.0;
    return cumulative_[std::min(n, cumulative_.size()) - 1];
  }

  std::size_t max_n() const { return cumulative_.size(); }

 private:
  std::vector<double> cumulative_;
};

struct EvaluationResult {
  TopNCurve curve;
  std::size_t n_samples = 0;
};

// Aggregate per-sample rankings (in sample order) against the true labels
// into a cumulative top-n curve. The single aggregation shared by
// Attacker::evaluate and the CLI's remote-query path (`wf query`), so an
// in-process and a daemon-served evaluation of the same rankings cannot
// drift apart.
TopNCurve curve_from_rankings(const std::vector<std::vector<RankedLabel>>& rankings,
                              std::span<const int> labels, std::size_t max_n);

// The public face of every fingerprinting adversary in this repo. The
// experiment harnesses program against this interface (taking an attacker
// factory), so swapping the paper's adaptive embedding system for a
// baseline is a one-line change in any experiment.
//
// Lifecycle: train() once on a labeled crawl (builds models AND the initial
// target set), then fingerprint/evaluate observed traces (both rank through
// fingerprint_batch); set_references() re-targets the attacker onto fresh
// labeled loads, and adapt() refreshes a single class — implementations
// differ in what those cost (the paper's §IV claim: the embedding attacker
// swaps references without retraining, a forest must refit end to end).
class Attacker {
 public:
  virtual ~Attacker() = default;

  // Stable registry name ("adaptive", "forest", "kfp-knn"); also stamped
  // into saved model files so io::load_attacker can dispatch.
  virtual std::string name() const = 0;

  // Train on the labeled dataset and build the initial reference/target
  // set from it.
  virtual TrainStats train(const data::Dataset& train) = 0;

  // Re-target onto fresh labeled loads, keeping whatever the
  // implementation can hold fixed (the embedding attacker keeps its
  // trained model; a forest refits).
  virtual void set_references(const data::Dataset& references) = 0;

  // Ranked candidate pages for every trace in `traces`, best first. Each
  // trace's ranking depends only on that trace: the same trace in any batch
  // ranks bit-identically (wf serve coalesces queries on this).
  virtual std::vector<std::vector<RankedLabel>> fingerprint_batch(
      const data::Dataset& traces) const = 0;

  // One observed trace: the one-row fingerprint_batch, so it equals that
  // trace's row of any batch bit for bit.
  std::vector<RankedLabel> fingerprint(std::span<const float> features) const;

  // Top-n accuracy over a held-out set: fingerprint_batch rankings
  // aggregated in sample order.
  EvaluationResult evaluate(const data::Dataset& test, std::size_t max_n) const;

  // Refresh one class from fresh loads of it (§IV-C probe-and-swap for the
  // embedding attacker; a full refit for train-heavy baselines).
  virtual void adapt(int label, const data::Dataset& fresh) = 0;

  // Sorted page labels the attacker currently targets (its reference or
  // training set) — lets a caller cross-check a loaded model against the
  // world it is about to be evaluated on.
  virtual std::vector<int> target_classes() const = 0;

  // Deep copy, preserving trained state.
  virtual std::unique_ptr<Attacker> clone() const = 0;

  // Serialize/restore the attacker-specific sections of a wf::io file (the
  // header and name section are owned by io::save_attacker/load_attacker).
  virtual void save_body(io::Writer& out) const = 0;
  virtual void load_body(io::Reader& in) = 0;

  // Whole-file convenience wrappers around io::save_attacker/load_attacker
  // (magic + version + name + body). load() requires the file to hold an
  // attacker of this type.
  void save(const std::string& path) const;
  void load(const std::string& path);
};

}  // namespace wf::core
