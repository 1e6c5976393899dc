#include <thread>

#include "nn/simd.hpp"
#include "obs/metrics.hpp"
#include "phases.hpp"
#include "serve/frame.hpp"

namespace perfbench {

namespace {

// Repeats `body` (which does `units` units of work) until at least
// `min_seconds` passed; returns seconds per unit.
template <typename Body>
double seconds_per_unit(double units, double min_seconds, Body&& body) {
  const Clock::time_point start = Clock::now();
  double done = 0.0;
  do {
    body();
    done += units;
  } while (seconds_since(start) < min_seconds);
  return seconds_since(start) / done;
}

}  // namespace

double dot_ns_per_row(const wf::core::ReferenceStore& store, std::span<const float> query) {
  volatile float sink = 0.0f;
  const double s = seconds_per_unit(static_cast<double>(store.size()), 0.2, [&] {
    float acc = 0.0f;
    for (std::size_t shard = 0; shard < store.shard_count(); ++shard) {
      const wf::core::ShardView view = store.shard_view(shard);
      for (std::size_t r = 0; r < view.rows; ++r)
        acc += wf::nn::simd_dot(query.data(), view.data + r * store.dim(), store.dim());
    }
    sink = sink + acc;
  });
  return s * 1e9;
}

FrameCosts frame_costs(const std::string& query_frame,
                       const std::vector<wf::core::RankedLabel>& ranking) {
  FrameCosts costs;
  // Decode the query once to re-encode the same matrix.
  wf::serve::ParsedFrame parsed = wf::serve::parse_frame(query_frame.substr(8));
  const wf::nn::Matrix features = wf::serve::read_features(*parsed.reader);
  volatile std::size_t sink = 0;
  costs.encode_us = 1e6 * seconds_per_unit(1000, 0.1, [&] {
    for (int i = 0; i < 1000; ++i)
      sink = sink + wf::serve::encode_frame(wf::serve::kFrameQuery, [&](wf::io::Writer& w) {
                      wf::serve::write_features(w, features);
                    }).size();
  });
  const wf::serve::Rankings rankings{ranking};
  const std::string reply =
      wf::serve::encode_frame(wf::serve::kFrameRankings,
                              [&](wf::io::Writer& w) { wf::serve::write_rankings(w, rankings); });
  costs.decode_us = 1e6 * seconds_per_unit(1000, 0.1, [&] {
    for (int i = 0; i < 1000; ++i) {
      wf::serve::ParsedFrame frame = wf::serve::parse_frame(reply.substr(8));
      sink = sink + wf::serve::read_rankings(*frame.reader).size();
    }
  });
  return costs;
}

double histogram_record_ns(std::size_t threads) {
  constexpr std::size_t kPerThread = 200000;
  wf::obs::Histogram histogram;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t)
    workers.emplace_back([&histogram, t] {
      for (std::size_t i = 0; i < kPerThread; ++i)
        histogram.record(0.25 + static_cast<double>((i + t) % 64) * 0.125);
    });
  for (std::thread& w : workers) w.join();
  // Wall time per record as one thread sees it while the others contend.
  return seconds_since(start) * 1e9 / static_cast<double>(kPerThread);
}

}  // namespace perfbench
