// wf_perfbench: runs one phase of the benchmark in this process and
// prints its metrics as one JSON line. perfbench/run.py runs every phase in
// its own process and merges their lines.
//
//   wf_perfbench --phase serve_poisson|retarget_adapt|index_churn
//                --workload dram|cache --seed N --seconds S --trace 0|1
//                --work-dir DIR

#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"
#include "phases.hpp"

namespace {

int usage() {
  std::cerr << "usage: wf_perfbench --phase NAME --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::PhaseOptions options;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--phase") {
      options.phase = value;
    } else if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage();
    }
  }
  if (options.phase.empty() || workload.empty() || options.work_dir.empty()) return usage();

  try {
    options.scale = perfbench::scale_for(workload);
    std::filesystem::create_directories(options.work_dir);
    perfbench::Report report;
    if (options.phase == "serve_poisson") {
      perfbench::run_serve_poisson(options, report);
    } else if (options.phase == "retarget_adapt") {
      perfbench::run_retarget_adapt(options, report);
    } else if (options.phase == "index_churn") {
      perfbench::run_index_churn(options, report);
    } else {
      return usage();
    }
    report.add("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
    if (options.trace)
      perfbench::SpanLog::instance().write(options.work_dir + "/spans-" + options.phase + ".jsonl");
    std::cout << report.json(options.phase) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "wf_perfbench: " << options.phase << ": " << e.what() << "\n";
    return 1;
  }
}
