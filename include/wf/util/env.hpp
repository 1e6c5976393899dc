#pragma once

#include <cstddef>
#include <string>

namespace wf::util {

// Single home for every WF_* environment knob, replacing the getenv calls
// that used to be scattered across the thread pool, the sharded reference
// set, the scenario cache and the bench reports. Accessors parse the
// environment live (tests flip variables between calls), but a programmatic
// override — set by the `wf` CLI from flags like --smoke/--out — always
// wins over the environment.
class Env {
 public:
  // WF_SMOKE: switches every experiment to the seconds-scale smoke
  // configuration. "0"/"false"/"off"/"no" (any case) leave it disabled;
  // any other value — including the bare WF_SMOKE=1 — enables it.
  static bool smoke();

  // WF_THREADS: worker count of the global pool, clamped to [1, 512].
  // Returns 0 when unset or unparsable (callers fall back to the hardware
  // concurrency); values with trailing garbage ("4x") are rejected with a
  // warning rather than silently read as their numeric prefix.
  static std::size_t threads();

  // WF_SHARDS: reference-set shard count, clamped to [1, 4096]. Returns 0
  // when unset or unparsable (callers fall back to one shard per pool
  // thread).
  static std::size_t shards();

  // WF_RESULTS_DIR: where experiment CSVs/JSON land; "results" by default.
  static std::string results_dir();

  // WF_SERVE_TIMEOUT_MS: default per-request deadline of the serving layer
  // (server request timeout and client RPC timeout), clamped to
  // [1, 3600000]. Returns 0 when unset or unparsable (callers fall back to
  // their built-in default); the `wf` CLI's --timeout-ms takes precedence.
  static std::size_t serve_timeout_ms();

  // WF_OBS: enables span tracing (obs::Span ring-buffer recording) in the
  // pipeline hot paths. Same truthiness rules as WF_SMOKE. Metrics counters
  // are always live; only spans sit behind this switch. Note obs::enabled()
  // caches the first read — flip it at runtime via obs::set_enabled.
  static bool obs();

  // WF_LOG_LEVEL: minimum severity that reaches stderr — "debug", "info"
  // or "warn" (any case). Unset or unrecognized values read as "info".
  static std::string log_level();

  // WF_SIMD: distance-kernel instruction set — "auto" (default), "avx2",
  // "neon" or "scalar", lowercased. Note nn::simd_mode() resolves this once
  // and caches it — flip it at runtime via nn::set_simd_mode.
  static std::string simd();

  // CLI overrides: take precedence over the environment until cleared.
  static void override_smoke(bool smoke);
  static void override_threads(std::size_t threads);
  static void override_shards(std::size_t shards);
  static void override_results_dir(std::string dir);

  // One log_info line with the effective settings, emitted at most once per
  // process (every entry point calls it; only the first call prints).
  static void log_effective();
};

}  // namespace wf::util
