#include "core/attacker.hpp"

#include <fstream>
#include <stdexcept>

#include "io/serialize.hpp"

namespace wf::core {

std::vector<RankedLabel> Attacker::fingerprint(std::span<const float> features) const {
  data::Dataset one(features.size());
  one.add({{features.begin(), features.end()}, 0});
  return fingerprint_batch(one).front();
}

TopNCurve curve_from_rankings(const std::vector<std::vector<RankedLabel>>& rankings,
                              std::span<const int> labels, std::size_t max_n) {
  if (rankings.size() != labels.size())
    throw std::invalid_argument("curve_from_rankings: rankings/labels size mismatch");
  if (labels.empty()) return TopNCurve();
  std::vector<double> hits(std::max<std::size_t>(1, max_n), 0.0);
  for (std::size_t i = 0; i < rankings.size(); ++i) {
    const std::vector<RankedLabel>& ranking = rankings[i];
    for (std::size_t r = 0; r < ranking.size() && r < hits.size(); ++r) {
      if (ranking[r].label == labels[i]) {
        hits[r] += 1.0;
        break;
      }
    }
  }
  // Cumulate and normalize.
  std::vector<double> curve(hits.size(), 0.0);
  double acc = 0.0;
  for (std::size_t n = 0; n < hits.size(); ++n) {
    acc += hits[n];
    curve[n] = acc / static_cast<double>(labels.size());
  }
  return TopNCurve(std::move(curve));
}

EvaluationResult Attacker::evaluate(const data::Dataset& test, std::size_t max_n) const {
  EvaluationResult result;
  result.n_samples = test.size();
  if (test.empty()) return result;
  // Rank every query in one batched pass; the hit aggregation stays serial
  // and in sample order.
  result.curve = curve_from_rankings(fingerprint_batch(test), test.labels_of(), max_n);
  return result;
}

void Attacker::save(const std::string& path) const { io::save_attacker(path, *this); }

void Attacker::load(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw io::IoError("cannot open " + path);
  io::Reader in(file);
  const std::string stored = io::read_attacker_name(in);
  if (stored != name())
    throw io::IoError("file holds a \"" + stored + "\" attacker, not \"" + name() + "\"");
  load_body(in);
}

}  // namespace wf::core
