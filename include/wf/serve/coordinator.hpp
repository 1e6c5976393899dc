#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/retry.hpp"
#include "serve/server.hpp"

namespace wf::serve {

struct BackendAddress {
  std::string host;
  std::uint16_t port = 0;
};

// Liveness of one shard backend, as the coordinator sees it. `up` backends
// take queries; a post-retry failure makes a backend `suspect`, a second
// consecutive one `down`. Down backends are skipped by the scatter (queries
// fail fast instead of re-paying the timeout) until the background
// reconnect thread revives them.
enum class BackendHealth { up, suspect, down };
const char* backend_health_name(BackendHealth health);

struct BackendStatus {
  BackendAddress address;
  BackendHealth health = BackendHealth::up;
};

struct CoordinatorConfig {
  // Startup handshake: keep retrying refused connections for up to this
  // long, so a coordinator started back to back with its backends does not
  // race their binds. Background reconnects always use single attempts.
  int connect_retry_ms = 0;
  int connect_timeout_ms = 10000;
  // Per-RPC deadline towards each backend; <= 0 disables.
  int timeout_ms = 30000;
  // Answer from the live slices when some backends are down, flagging the
  // reply degraded (DGRD) with its covered-reference count. Off by default:
  // a query then fails fast with ERRR(retryable, unavailable) instead.
  bool allow_partial = false;
  // Scatter-side schedule: per-backend retries of a failed SCAN RPC.
  RetryPolicy retry{};
  // Background reconnect pacing (max_attempts is ignored there — a down
  // backend is retried for as long as the coordinator lives).
  RetryPolicy reconnect{8, 50, 2000, 0.5, 0x9f5fULL};
};

// The gather half of scatter/gather serving: holds one Client per shard
// backend, fans every query batch out as SCAN frames in parallel, and folds
// the slice scans back together with core::merge_slice_scans — rankings are
// bit-identical to one unsharded daemon answering the same batch whenever
// every slice answered (and merge coverage is full even in --partial mode).
//
// The constructor performs a HELO handshake with every backend and rejects
// inconsistent deployments: all backends must serve the same model (same
// attacker kind, reference count, k and dense class-id table) and their
// slices must cover 0..n-1 exactly once for n backends.
class CoordinatorHandler final : public Handler {
 public:
  CoordinatorHandler(const std::vector<BackendAddress>& backends,
                     const CoordinatorConfig& config);
  ~CoordinatorHandler() override;

  ServerInfo info() const override;
  RankReply rank(const nn::Matrix& queries) override;
  // A coordinator is always a whole-store endpoint; it cannot be stacked as
  // somebody else's shard slice.
  core::SliceScan scan(const nn::Matrix& queries) override;

  // Current per-backend health, in slice order.
  std::vector<BackendStatus> status() const;

 private:
  struct Backend {
    BackendAddress address;
    std::unique_ptr<Client> client;
    BackendHealth health = BackendHealth::up;
    int strikes = 0;  // consecutive post-retry failures
  };

  void mark_success(std::size_t i);
  void mark_failure(std::size_t i);
  void reconnect_loop();
  // Health writes funnel through here (mutex_ held): counts every
  // up/suspect/down transition and refreshes the backends-down gauge.
  void set_health_locked(std::size_t i, BackendHealth health);

  CoordinatorConfig config_;
  ServerInfo info_;      // merged view: slice 0 of 1, whole reference set
  ServerInfo expected_;  // reference copy of backend 0's handshake info

  // health/strikes/client swaps are guarded by mutex_. A backend's Client
  // is used outside the lock, but only ever by one side: the scatter uses
  // backends that are not down, the reconnect thread only touches down
  // ones, and the transition happens under the lock.
  mutable std::mutex mutex_;
  std::vector<Backend> backends_;
  std::condition_variable reconnect_cv_;
  std::thread reconnect_thread_;
  bool stopping_ = false;

  // Cached obs::Registry::global() instruments (stable references).
  obs::Histogram* scatter_ms_;
  obs::Counter* degraded_total_;
  obs::Counter* transitions_total_;
  obs::Counter* reconnects_total_;
  obs::Gauge* backends_down_;
  std::vector<obs::Counter*> backend_transitions_;  // per slice, by index
};

}  // namespace wf::serve
