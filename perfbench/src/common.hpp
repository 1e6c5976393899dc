#pragma once

// Shared plumbing of the perfbench program: the phase options, the metric
// report each phase prints, the benchmark's own in-memory span log, per-phase
// deltas of the wf::obs registry, and the environment stamp.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds since `start` on the steady clock.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Input sizes of one workload. Both workloads run every phase; they differ in
// how large the working sets are relative to the CPU caches.
struct Scale {
  int retarget_classes = 0;       // fresh-site classes the retarget step targets
  std::size_t index_rows = 0;     // reference rows of the synthetic index corpus
  std::size_t index_clusters = 0;
  std::size_t index_probes = 0;
};
// Throws std::invalid_argument for an unknown workload name.
Scale scale_for(const std::string& workload);

struct PhaseOptions {
  std::string phase;
  Scale scale;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measurement budget of this phase
  bool trace = false;
  std::string work_dir;   // scratch files (index files, span logs)
};

// Metrics of one phase, printed as one JSON object.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }
  // A correctness check that is not an operation: false marks the run incorrect.
  void check(bool ok, const std::string& what);

  bool correct() const { return correct_ && failed_ == 0 && attempted_ > 0; }
  std::string json(const std::string& phase) const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

// The traced run's span log: every public call the benchmark times becomes
// one record (name, start, end, parent, request id), kept in memory and
// written out at exit. Unlike the obs rings it never drops a span. When
// disabled, ScopedSpan costs one branch.
struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;      // 0: a root span
  std::uint64_t request_id = 0;  // 0: not tied to one request
  double start_s = 0.0;          // since the log's epoch
  double end_s = 0.0;
  double ms() const { return (end_s - start_s) * 1e3; }
};

class SpanLog {
 public:
  static SpanLog& instance();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Opens a span on the calling thread (its parent is the thread's innermost
  // open span) and returns its id; close() ends it.
  std::uint64_t open(const char* name, std::uint64_t request_id = 0);
  void close(std::uint64_t id);
  // Records an already measured interval (e.g. a request timed from its
  // intended send time by another thread).
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t request_id);

  // Durations (ms) of the closed spans called `name`, in completion order,
  // skipping the first `from` closed spans (a mark taken with size()).
  std::vector<double> durations(const std::string& name, std::size_t from = 0) const;
  double total_ms(const std::string& name, std::size_t from = 0) const;
  std::size_t size() const;

  // One JSON object per line.
  void write(const std::string& path) const;

 private:
  SpanLog();
  double offset(Clock::time_point t) const;

  bool enabled_ = false;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, SpanRecord> open_;
  std::vector<SpanRecord> closed_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request_id = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t id_ = 0;
};

// Per-phase view of the process-wide obs registry: the difference between
// two snapshots (counters and histogram count/sum subtract; gauges read the
// later value).
class ObsDelta {
 public:
  ObsDelta();  // takes the "before" snapshot
  void finish();  // takes the "after" snapshot

  double counter(const std::string& name) const;
  double hist_count(const std::string& name) const;
  double hist_sum(const std::string& name) const;
  // hist_sum / hist_count, 0 when no samples landed in the phase.
  double hist_mean(const std::string& name) const;

 private:
  const wf::obs::SnapshotEntry* before(const std::string& name) const;
  const wf::obs::SnapshotEntry* after(const std::string& name) const;

  wf::obs::Snapshot before_;
  wf::obs::Snapshot after_;
};

// Quantile of retained samples: sorted[ceil(p * n) - 1] (nearest rank).
double quantile(std::vector<double> values, double p);
double median(std::vector<double> values);

// How a repeated timing is summarised on a shared machine: the quick quartile
// of the repeats (lower quartile of times, upper quartile of rates). Host
// interference only ever slows a repeat down, so the quick quartile follows
// the program and moves less with the neighbours' load than the median.
double quick_time(std::vector<double> times);
double quick_rate(std::vector<double> rates);

// Peak resident set size of this process in MiB.
double peak_rss_mb();

// nproc, SIMD mode, resolved pool threads, compiler and build type as JSON.
std::string environment_json();

}  // namespace perfbench
