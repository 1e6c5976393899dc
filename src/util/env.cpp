#include "util/env.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <mutex>
#include <optional>

#include "util/log.hpp"

namespace wf::util {

namespace {

struct Overrides {
  std::optional<bool> smoke;
  std::optional<std::size_t> threads;
  std::optional<std::size_t> shards;
  std::optional<std::string> results_dir;
  std::mutex mutex;
};

Overrides& overrides() {
  static Overrides state;
  return state;
}

// Positive integer from `name`, clamped to [1, max]; 0 when unset/invalid.
// A value with a non-numeric suffix ("4x") is rejected as a whole — and
// warned about, since silently reading it as 4 would misconfigure a
// long-running process — instead of strtol's stop-at-garbage parse.
std::size_t parse_count(const char* name, long max) {
  const char* env = std::getenv(name);
  if (env == nullptr) return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0') {
    log_warn() << name << "=\"" << env << "\" is not an integer; falling back to auto";
    return 0;
  }
  if (v < 1) return 0;
  return static_cast<std::size_t>(std::min(v, max));
}

// "0", "false", "off" and "no" (any case) read as disabled; any other
// non-empty value enables the flag, so WF_SMOKE=1 keeps working.
bool parse_flag(const char* env) {
  if (env == nullptr || env[0] == '\0') return env != nullptr;
  std::string value(env);
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return value != "0" && value != "false" && value != "off" && value != "no";
}

}  // namespace

bool Env::smoke() {
  {
    std::lock_guard<std::mutex> lock(overrides().mutex);
    if (overrides().smoke) return *overrides().smoke;
  }
  return parse_flag(std::getenv("WF_SMOKE"));
}

std::size_t Env::threads() {
  {
    std::lock_guard<std::mutex> lock(overrides().mutex);
    if (overrides().threads) return *overrides().threads;
  }
  return parse_count("WF_THREADS", 512);
}

std::size_t Env::shards() {
  {
    std::lock_guard<std::mutex> lock(overrides().mutex);
    if (overrides().shards) return *overrides().shards;
  }
  return parse_count("WF_SHARDS", 4096);
}

std::string Env::results_dir() {
  {
    std::lock_guard<std::mutex> lock(overrides().mutex);
    if (overrides().results_dir) return *overrides().results_dir;
  }
  const char* env = std::getenv("WF_RESULTS_DIR");
  return (env != nullptr && env[0] != '\0') ? env : "results";
}

std::size_t Env::serve_timeout_ms() {
  return parse_count("WF_SERVE_TIMEOUT_MS", 3600000);
}

bool Env::obs() {
  return parse_flag(std::getenv("WF_OBS"));
}

std::string Env::log_level() {
  const char* env = std::getenv("WF_LOG_LEVEL");
  std::string value = env != nullptr ? env : "";
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  // Unknown spellings read as the default rather than warning: this is
  // called from the log flush path itself, where emitting would recurse.
  if (value != "debug" && value != "warn") return "info";
  return value;
}

std::string Env::simd() {
  const char* env = std::getenv("WF_SIMD");
  std::string value = env != nullptr ? env : "";
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (value.empty()) return "auto";
  return value;
}

void Env::override_smoke(bool smoke) {
  std::lock_guard<std::mutex> lock(overrides().mutex);
  overrides().smoke = smoke;
}

void Env::override_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(overrides().mutex);
  overrides().threads = threads;
}

void Env::override_shards(std::size_t shards) {
  std::lock_guard<std::mutex> lock(overrides().mutex);
  overrides().shards = shards;
}

void Env::override_results_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(overrides().mutex);
  overrides().results_dir = std::move(dir);
}

void Env::log_effective() {
  static std::atomic<bool> logged{false};
  if (logged.exchange(true)) return;
  const std::size_t threads = Env::threads();
  const std::size_t shards = Env::shards();
  log_info() << "settings: smoke=" << (smoke() ? "on" : "off") << " threads="
             << (threads == 0 ? "auto" : std::to_string(threads)) << " shards="
             << (shards == 0 ? "auto" : std::to_string(shards)) << " results_dir="
             << results_dir() << " obs=" << (obs() ? "on" : "off") << " log_level="
             << log_level() << " simd=" << simd();
}

}  // namespace wf::util
