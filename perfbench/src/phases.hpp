#pragma once

// The three phases of a benchmark run (each runs in its own process) and the
// single-layer probes the traced run adds to them.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/knn.hpp"
#include "core/reference_store.hpp"

namespace perfbench {

void run_serve_poisson(const PhaseOptions& options, Report& report);
void run_retarget_adapt(const PhaseOptions& options, Report& report);
void run_index_churn(const PhaseOptions& options, Report& report);

// nn::simd_dot of `query` against every row of `store`, in ns per row.
double dot_ns_per_row(const wf::core::ReferenceStore& store, std::span<const float> query);

// Cost of the frame codec at the serve phase's frame sizes: encoding one
// single-trace QRYB frame, and parsing one single-ranking RNKB reply.
struct FrameCosts {
  double encode_us = 0.0;
  double decode_us = 0.0;
};
FrameCosts frame_costs(const std::string& query_frame,
                       const std::vector<wf::core::RankedLabel>& ranking);

// ns per obs::Histogram::record with `threads` threads recording into one
// shared histogram at once.
double histogram_record_ns(std::size_t threads);

}  // namespace perfbench
