#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace wf::obs {

// Monotonic event count. Lock-free: hot paths pay one relaxed fetch_add.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Point-in-time level (queue depth, backends down). Lock-free.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Latency/size distribution with fixed log-spaced bucket bounds AND exact
// quantiles: every sample is retained (up to kSampleCapacity) so
// `quantile(p)` reproduces the ad-hoc `sorted[p * (n - 1)]` percentile math
// it replaced in eval/exp_robust bit-for-bit. Past
// capacity the quantile degrades gracefully to the upper bound of the
// log-spaced bucket holding that rank (bucket counts are never dropped).
// One uncontended mutex per histogram; record() is O(log n_buckets).
class Histogram {
 public:
  // Bucket upper bounds: kBase * 2^i, i in [0, kBucketCount). With
  // kBase = 0.001 that spans 1 us .. ~6.4 days when samples are in ms;
  // one extra overflow bucket catches everything above the last bound.
  static constexpr std::size_t kBucketCount = 40;
  static constexpr double kBase = 0.001;
  // 64k doubles = 512 KiB ceiling on retained samples per histogram.
  static constexpr std::size_t kSampleCapacity = std::size_t{1} << 16;

  Histogram();

  void record(double value);

  std::uint64_t count() const;
  double sum() const;
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty
  // Exact while count() <= kSampleCapacity: sorts the retained samples and
  // returns sorted[static_cast<size_t>(p * (n - 1))]. p is clamped to [0, 1].
  double quantile(double p) const;
  // True while quantile() is computed from retained samples, not buckets.
  bool exact() const;
  // Per-bucket counts, size kBucketCount + 1 (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;
  void reset();

  // The shared upper-bound table (size kBucketCount).
  static const std::vector<double>& bounds();

 private:
  mutable std::mutex mutex_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<std::uint64_t> buckets_;  // kBucketCount + 1 slots
  std::vector<double> samples_;         // retained while count_ <= kSampleCapacity
};

enum class InstrumentKind : std::uint8_t { counter = 0, gauge = 1, histogram = 2 };

const char* instrument_kind_name(InstrumentKind kind);

// One instrument flattened for serialization/printing. Histogram quantiles
// are extracted at snapshot time; counter/gauge leave the histogram fields 0.
struct SnapshotEntry {
  std::string name;
  InstrumentKind kind = InstrumentKind::counter;
  std::uint64_t count = 0;  // counter value / histogram sample count
  double value = 0.0;       // gauge level
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::vector<double> bounds;           // histogram bucket upper bounds
  std::vector<std::uint64_t> buckets;   // per-bucket counts (+ overflow slot)
};

struct Snapshot {
  std::vector<SnapshotEntry> entries;  // sorted by name — deterministic

  const SnapshotEntry* find(const std::string& name) const;
};

// Named instrument directory. Registration takes a mutex once; the returned
// references stay valid for the registry's lifetime (instruments are
// heap-held), so callers cache them and the hot path never locks the map.
// Re-registering a name with a different kind throws std::logic_error.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-wide registry every built-in instrument lives in.
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Deterministic: entries sorted by name (std::map iteration order).
  Snapshot snapshot() const;

  // Zero every instrument in place (references stay valid). Test hook.
  void reset();

 private:
  struct Instrument {
    InstrumentKind kind = InstrumentKind::counter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Instrument> instruments_;
};

// CSV/pretty view: columns Instrument, Kind, Value, Count, Sum, Min, Max,
// p50, p90, p99. Counters put their count in Value too, so a stats consumer
// can always awk column 3.
util::Table snapshot_table(const Snapshot& snapshot);

}  // namespace wf::obs
