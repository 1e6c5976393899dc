#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "nn/simd.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return out.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

thread_local std::vector<std::uint64_t> open_stack;

}  // namespace

Scale scale_for(const std::string& workload) {
  // `dram`: the sizes the scenario describes — a ~1,000-class retarget and
  // a 262,144-row index (32 MiB of embeddings, beyond the last-level cache).
  if (workload == "dram") return {1000, 262144, 512, 16};
  // `cache`: the same code paths on working sets that stay cache resident.
  if (workload == "cache") return {250, 32768, 64, 4};
  throw std::invalid_argument("unknown workload \"" + workload + "\" (dram | cache)");
}

// --- Report -----------------------------------------------------------------

void Report::add(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::string Report::json(const std::string& phase) const {
  std::ostringstream out;
  out << "{\"phase\": " << json_string(phase) << ", \"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"value\": " << json_number(entry.value)
        << ", \"unit\": " << json_string(entry.unit) << "}";
    first = false;
  }
  out << "}, \"env\": " << environment_json() << "}";
  return out.str();
}

// --- SpanLog ----------------------------------------------------------------

SpanLog::SpanLog() : epoch_(Clock::now()) {}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

double SpanLog::offset(Clock::time_point t) const {
  return std::chrono::duration<double>(t - epoch_).count();
}

std::uint64_t SpanLog::open(const char* name, std::uint64_t request_id) {
  const double start = offset(Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = next_id_++;
  SpanRecord record;
  record.name = name;
  record.id = id;
  record.parent = open_stack.empty() ? 0 : open_stack.back();
  record.request_id = request_id;
  record.start_s = start;
  open_.emplace(id, std::move(record));
  open_stack.push_back(id);
  return id;
}

void SpanLog::close(std::uint64_t id) {
  const double end = offset(Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.end_s = end;
  closed_.push_back(std::move(it->second));
  open_.erase(it);
  if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
}

void SpanLog::record(const char* name, Clock::time_point start, Clock::time_point end,
                     std::uint64_t request_id) {
  SpanRecord record;
  record.name = name;
  record.request_id = request_id;
  record.start_s = offset(start);
  record.end_s = offset(end);
  const std::lock_guard<std::mutex> lock(mutex_);
  record.id = next_id_++;
  record.parent = open_stack.empty() ? 0 : open_stack.back();
  closed_.push_back(std::move(record));
}

std::vector<double> SpanLog::durations(const std::string& name, std::size_t from) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (std::size_t i = from; i < closed_.size(); ++i)
    if (closed_[i].name == name) out.push_back(closed_[i].ms());
  return out;
}

double SpanLog::total_ms(const std::string& name, std::size_t from) const {
  double total = 0.0;
  for (const double ms : durations(name, from)) total += ms;
  return total;
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return closed_.size();
}

void SpanLog::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  for (const SpanRecord& r : closed_)
    out << "{\"name\": " << json_string(r.name) << ", \"id\": " << r.id
        << ", \"parent\": " << r.parent << ", \"request_id\": " << r.request_id
        << ", \"start_s\": " << json_number(r.start_s) << ", \"end_s\": " << json_number(r.end_s)
        << "}\n";
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request_id) {
  SpanLog& log = SpanLog::instance();
  if (log.enabled()) id_ = log.open(name, request_id);
}

ScopedSpan::~ScopedSpan() {
  if (id_ != 0) SpanLog::instance().close(id_);
}

// --- ObsDelta ---------------------------------------------------------------

ObsDelta::ObsDelta() : before_(wf::obs::Registry::global().snapshot()) {}

void ObsDelta::finish() { after_ = wf::obs::Registry::global().snapshot(); }

const wf::obs::SnapshotEntry* ObsDelta::before(const std::string& name) const {
  return before_.find(name);
}

const wf::obs::SnapshotEntry* ObsDelta::after(const std::string& name) const {
  return after_.find(name);
}

double ObsDelta::counter(const std::string& name) const {
  const wf::obs::SnapshotEntry* a = after(name);
  const wf::obs::SnapshotEntry* b = before(name);
  return static_cast<double>((a ? a->count : 0) - (b ? b->count : 0));
}

double ObsDelta::hist_count(const std::string& name) const { return counter(name); }

double ObsDelta::hist_sum(const std::string& name) const {
  const wf::obs::SnapshotEntry* a = after(name);
  const wf::obs::SnapshotEntry* b = before(name);
  return (a ? a->sum : 0.0) - (b ? b->sum : 0.0);
}

double ObsDelta::hist_mean(const std::string& name) const {
  const double n = hist_count(name);
  return n > 0 ? hist_sum(name) / n : 0.0;
}

// --- stats and environment ----------------------------------------------------

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(std::clamp(p, 0.0, 1.0) * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quick_time(std::vector<double> times) { return quantile(std::move(times), 0.25); }

double quick_rate(std::vector<double> rates) { return quantile(std::move(rates), 0.75); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string environment_json() {
  std::ostringstream out;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"simd\": " << json_string(wf::nn::simd_mode_name(wf::nn::simd_mode()))
      << ", \"wf_threads\": " << wf::util::global_pool().size()
      << ", \"compiler\": " << json_string(compiler)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE) << "}";
  return out.str();
}

}  // namespace perfbench
