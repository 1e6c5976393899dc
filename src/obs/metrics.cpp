#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>


namespace wf::obs {

namespace {

// First bucket whose upper bound contains `value`; kBucketCount = overflow.
std::size_t bucket_index(double value) {
  const std::vector<double>& bounds = Histogram::bounds();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  return static_cast<std::size_t>(it - bounds.begin());
}

// The exact formula the ad-hoc eval percentile helpers used; keeping it
// byte-identical is what let exp_robust port without CSV drift.
double exact_quantile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(samples.size() - 1));
  return samples[rank];
}

}  // namespace

Histogram::Histogram() : buckets_(kBucketCount + 1, 0) { samples_.reserve(64); }

const std::vector<double>& Histogram::bounds() {
  static const std::vector<double> table = [] {
    std::vector<double> b(kBucketCount);
    double bound = kBase;
    for (std::size_t i = 0; i < kBucketCount; ++i, bound *= 2.0) b[i] = bound;
    return b;
  }();
  return table;
}

void Histogram::record(double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[bucket_index(value)];
  if (samples_.size() < kSampleCapacity) samples_.push_back(value);
}

std::uint64_t Histogram::count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

double Histogram::sum() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

double Histogram::min() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return min_;
}

double Histogram::max() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return max_;
}

bool Histogram::exact() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return count_ == samples_.size();
}

double Histogram::quantile(double p) const {
  p = std::clamp(p, 0.0, 1.0);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) return 0.0;
  if (count_ == samples_.size()) return exact_quantile(samples_, p);
  // Degraded path: locate the bucket holding the target rank and answer
  // with its upper bound (the overflow bucket answers with the true max).
  const auto rank = static_cast<std::uint64_t>(p * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > rank) return i < kBucketCount ? bounds()[i] : max_;
  }
  return max_;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return buckets_;
}

void Histogram::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
  std::fill(buckets_.begin(), buckets_.end(), 0);
  samples_.clear();
}

const char* instrument_kind_name(InstrumentKind kind) {
  switch (kind) {
    case InstrumentKind::counter:
      return "counter";
    case InstrumentKind::gauge:
      return "gauge";
    case InstrumentKind::histogram:
      return "histogram";
  }
  return "unknown";
}

const SnapshotEntry* Snapshot::find(const std::string& name) const {
  for (const SnapshotEntry& entry : entries)
    if (entry.name == name) return &entry;
  return nullptr;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Instrument& slot = instruments_[name];
  if (slot.counter == nullptr) {
    if (slot.gauge != nullptr || slot.histogram != nullptr)
      throw std::logic_error("obs: instrument '" + name + "' already registered as " +
                             instrument_kind_name(slot.kind));
    slot.kind = InstrumentKind::counter;
    slot.counter = std::make_unique<Counter>();
  }
  return *slot.counter;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Instrument& slot = instruments_[name];
  if (slot.gauge == nullptr) {
    if (slot.counter != nullptr || slot.histogram != nullptr)
      throw std::logic_error("obs: instrument '" + name + "' already registered as " +
                             instrument_kind_name(slot.kind));
    slot.kind = InstrumentKind::gauge;
    slot.gauge = std::make_unique<Gauge>();
  }
  return *slot.gauge;
}

Histogram& Registry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Instrument& slot = instruments_[name];
  if (slot.histogram == nullptr) {
    if (slot.counter != nullptr || slot.gauge != nullptr)
      throw std::logic_error("obs: instrument '" + name + "' already registered as " +
                             instrument_kind_name(slot.kind));
    slot.kind = InstrumentKind::histogram;
    slot.histogram = std::make_unique<Histogram>();
  }
  return *slot.histogram;
}

Snapshot Registry::snapshot() const {
  Snapshot snapshot;
  const std::lock_guard<std::mutex> lock(mutex_);
  snapshot.entries.reserve(instruments_.size());
  for (const auto& [name, instrument] : instruments_) {  // std::map: sorted names
    SnapshotEntry entry;
    entry.name = name;
    entry.kind = instrument.kind;
    switch (instrument.kind) {
      case InstrumentKind::counter:
        entry.count = instrument.counter->value();
        break;
      case InstrumentKind::gauge:
        entry.value = static_cast<double>(instrument.gauge->value());
        break;
      case InstrumentKind::histogram: {
        const Histogram& h = *instrument.histogram;
        entry.count = h.count();
        entry.sum = h.sum();
        entry.min = h.min();
        entry.max = h.max();
        entry.p50 = h.quantile(0.50);
        entry.p90 = h.quantile(0.90);
        entry.p99 = h.quantile(0.99);
        entry.bounds = Histogram::bounds();
        entry.buckets = h.bucket_counts();
        break;
      }
    }
    snapshot.entries.push_back(std::move(entry));
  }
  return snapshot;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, instrument] : instruments_) {
    (void)name;
    if (instrument.counter) instrument.counter->reset();
    if (instrument.gauge) instrument.gauge->reset();
    if (instrument.histogram) instrument.histogram->reset();
  }
}

util::Table snapshot_table(const Snapshot& snapshot) {
  util::Table table(
      {"Instrument", "Kind", "Value", "Count", "Sum", "Min", "Max", "p50", "p90", "p99"});
  for (const SnapshotEntry& entry : snapshot.entries) {
    std::string value;
    switch (entry.kind) {
      case InstrumentKind::counter:
        value = std::to_string(entry.count);
        break;
      case InstrumentKind::gauge:
        value = util::Table::num(entry.value, 0);
        break;
      case InstrumentKind::histogram:
        value = std::to_string(entry.count);
        break;
    }
    const bool hist = entry.kind == InstrumentKind::histogram;
    table.add_row({entry.name, instrument_kind_name(entry.kind), value,
                   std::to_string(entry.count), hist ? util::Table::num(entry.sum, 3) : "",
                   hist ? util::Table::num(entry.min, 3) : "",
                   hist ? util::Table::num(entry.max, 3) : "",
                   hist ? util::Table::num(entry.p50, 3) : "",
                   hist ? util::Table::num(entry.p90, 3) : "",
                   hist ? util::Table::num(entry.p99, 3) : ""});
  }
  return table;
}

}  // namespace wf::obs
