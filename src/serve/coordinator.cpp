#include "serve/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "util/stopwatch.hpp"

namespace wf::serve {

namespace {

std::string address_string(const BackendAddress& address) {
  return address.host + ":" + std::to_string(address.port);
}

}  // namespace

const char* backend_health_name(BackendHealth health) {
  switch (health) {
    case BackendHealth::up: return "up";
    case BackendHealth::suspect: return "suspect";
    case BackendHealth::down: break;
  }
  return "down";
}

CoordinatorHandler::CoordinatorHandler(const std::vector<BackendAddress>& backends,
                                       const CoordinatorConfig& config)
    : config_(config) {
  if (backends.empty()) throw std::invalid_argument("coordinator: no backends");

  struct Connected {
    ServerInfo info;
    std::unique_ptr<Client> client;
    BackendAddress address;
  };
  std::vector<Connected> connected;
  connected.reserve(backends.size());
  for (const BackendAddress& address : backends) {
    ClientConfig client_config;
    client_config.connect_retry_ms = config_.connect_retry_ms;
    client_config.connect_timeout_ms = config_.connect_timeout_ms;
    client_config.timeout_ms = config_.timeout_ms;
    client_config.retry = config_.retry;
    auto client = std::make_unique<Client>(address.host, address.port, client_config);
    ServerInfo info = client->hello();
    const std::string where = address_string(address);
    if (info.slice_count != backends.size())
      throw std::runtime_error("coordinator: backend " + where + " serves slice " +
                               std::to_string(info.slice_index) + "/" +
                               std::to_string(info.slice_count) + " but " +
                               std::to_string(backends.size()) + " backends were given");
    if (info.id_to_label.empty())
      throw std::runtime_error("coordinator: backend " + where +
                               " cannot slice-scan (attacker \"" + info.attacker + "\")");
    connected.push_back({std::move(info), std::move(client), address});
  }

  std::sort(connected.begin(), connected.end(),
            [](const auto& a, const auto& b) { return a.info.slice_index < b.info.slice_index; });

  const ServerInfo& first = connected.front().info;
  for (std::size_t i = 0; i < connected.size(); ++i) {
    const ServerInfo& info = connected[i].info;
    if (info.slice_index != i)
      throw std::runtime_error("coordinator: backend slices do not cover 0.." +
                               std::to_string(connected.size() - 1) + " exactly once");
    if (info.attacker != first.attacker || info.n_references != first.n_references ||
        info.knn_k != first.knn_k || info.classes != first.classes ||
        info.id_to_label != first.id_to_label)
      throw std::runtime_error(
          "coordinator: backends disagree about the model (attacker/references/k/classes); "
          "they must all load the same saved file");
    // A loaded model deals its rows into the backend's own shard count, and
    // a slice is a set of shards: slices over different counts would miss
    // some rows and scan others twice.
    if (info.shard_count != first.shard_count)
      throw std::runtime_error("coordinator: backend " + address_string(connected[i].address) +
                               " splits its references into " +
                               std::to_string(info.shard_count) + " shards but " +
                               address_string(connected.front().address) + " into " +
                               std::to_string(first.shard_count) +
                               "; give every backend the same --shards / WF_SHARDS");
  }

  expected_ = first;
  info_ = first;
  info_.slice_index = 0;
  info_.slice_count = 1;
  backends_.reserve(connected.size());
  for (auto& c : connected) backends_.push_back({c.address, std::move(c.client)});

  obs::Registry& reg = obs::Registry::global();
  scatter_ms_ = &reg.histogram("coord.scatter_ms");
  degraded_total_ = &reg.counter("coord.degraded_total");
  transitions_total_ = &reg.counter("coord.health_transitions_total");
  reconnects_total_ = &reg.counter("coord.reconnects_total");
  backends_down_ = &reg.gauge("coord.backends_down");
  backend_transitions_.reserve(backends_.size());
  for (std::size_t i = 0; i < backends_.size(); ++i)
    backend_transitions_.push_back(
        &reg.counter("coord.backend." + std::to_string(i) + ".transitions_total"));

  reconnect_thread_ = std::thread(&CoordinatorHandler::reconnect_loop, this);
}

CoordinatorHandler::~CoordinatorHandler() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  reconnect_cv_.notify_all();
  if (reconnect_thread_.joinable()) reconnect_thread_.join();
}

ServerInfo CoordinatorHandler::info() const { return info_; }

std::vector<BackendStatus> CoordinatorHandler::status() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<BackendStatus> out;
  out.reserve(backends_.size());
  for (const Backend& b : backends_) out.push_back({b.address, b.health});
  return out;
}

void CoordinatorHandler::set_health_locked(std::size_t i, BackendHealth health) {
  if (backends_[i].health != health) {
    transitions_total_->inc();
    backend_transitions_[i]->inc();
  }
  backends_[i].health = health;
  std::int64_t down = 0;
  for (const Backend& b : backends_)
    if (b.health == BackendHealth::down) ++down;
  backends_down_->set(down);
}

void CoordinatorHandler::mark_success(std::size_t i) {
  const std::lock_guard<std::mutex> lock(mutex_);
  set_health_locked(i, BackendHealth::up);
  backends_[i].strikes = 0;
}

void CoordinatorHandler::mark_failure(std::size_t i) {
  bool went_down = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Backend& b = backends_[i];
    ++b.strikes;
    // Two strikes (two consecutive post-retry failures) take a backend out
    // of rotation: one flaky RPC should not cost its slice, but a dead peer
    // must stop charging every batch its full timeout.
    set_health_locked(i, b.strikes >= 2 ? BackendHealth::down : BackendHealth::suspect);
    went_down = b.health == BackendHealth::down;
  }
  if (went_down) reconnect_cv_.notify_all();
}

void CoordinatorHandler::reconnect_loop() {
  Backoff backoff(config_.reconnect);
  while (true) {
    std::size_t target = backends_.size();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      reconnect_cv_.wait(lock, [&] {
        if (stopping_) return true;
        for (const Backend& b : backends_)
          if (b.health == BackendHealth::down) return true;
        return false;
      });
      if (stopping_) return;
      for (std::size_t i = 0; i < backends_.size(); ++i)
        if (backends_[i].health == BackendHealth::down) {
          target = i;
          break;
        }
    }

    // Connect outside the lock: only this thread touches a down backend's
    // Client, so the scatter path is never blocked on a slow handshake.
    std::unique_ptr<Client> client;
    ServerInfo info;
    bool ok = false;
    try {
      ClientConfig client_config;
      client_config.connect_timeout_ms = config_.connect_timeout_ms;
      client_config.timeout_ms = config_.timeout_ms;
      client_config.retry = config_.retry;
      const BackendAddress address = backends_[target].address;
      client = std::make_unique<Client>(address.host, address.port, client_config);
      info = client->hello();
      // The revived backend must still be the same deployment: same model,
      // same slice assignment and shard count. Anything else stays down.
      ok = info.slice_index == target && info.slice_count == backends_.size() &&
           info.attacker == expected_.attacker && info.n_references == expected_.n_references &&
           info.knn_k == expected_.knn_k && info.classes == expected_.classes &&
           info.id_to_label == expected_.id_to_label && info.shard_count == expected_.shard_count;
    } catch (const std::exception&) {
      ok = false;
    }

    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) return;
    if (ok) {
      backends_[target].client = std::move(client);
      set_health_locked(target, BackendHealth::up);
      backends_[target].strikes = 0;
      reconnects_total_->inc();
      backoff = Backoff(config_.reconnect);  // fresh schedule for the next outage
    } else {
      // Unbounded by attempt count — a down backend is retried for as long
      // as the coordinator lives — but paced by the capped backoff.
      const int delay = backoff.next_delay_ms();
      reconnect_cv_.wait_for(lock, std::chrono::milliseconds(delay), [&] { return stopping_; });
      if (stopping_) return;
    }
  }
}

RankReply CoordinatorHandler::rank(const nn::Matrix& queries) {
  // Scatter: every live backend scans its slice concurrently (each over its
  // own connection), retrying transient failures on the bounded backoff
  // schedule. Down backends are skipped — queries fail fast (or degrade)
  // instead of re-paying the connect timeout every batch.
  const std::size_t n = backends_.size();
  util::Stopwatch scatter_watch;
  struct Attempt {
    bool ok = false;
    bool skipped = false;
    core::SliceScan scan;
    std::exception_ptr error;
  };
  std::vector<Attempt> attempts(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (backends_[i].health == BackendHealth::down) {
        attempts[i].skipped = true;
        attempts[i].error = std::make_exception_ptr(
            ServeError(true,
                       "backend " + address_string(backends_[i].address) + " is down",
                       ErrorClass::unavailable));
        continue;
      }
    }
    threads.emplace_back([&, i] {
      Backoff backoff(config_.retry, i);
      try {
        while (true) {
          try {
            attempts[i].scan = backends_[i].client->scan(queries);
            attempts[i].ok = true;
            mark_success(i);
            return;
          } catch (const ServeError& e) {
            if (!e.retryable() || !backoff.retry()) throw;
          } catch (const io::IoError&) {
            // Timeout or broken transport: the client dropped the
            // connection and will reconnect on the next attempt.
            if (!backoff.retry()) throw;
          }
        }
      } catch (...) {
        attempts[i].error = std::current_exception();
        mark_failure(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  scatter_ms_->record(scatter_watch.millis());

  // A non-retryable failure (malformed frame, model mismatch) is a bug, not
  // an outage: surface it even when partial answers are allowed.
  for (const Attempt& a : attempts) {
    if (a.ok || !a.error) continue;
    try {
      std::rethrow_exception(a.error);
    } catch (const ServeError& e) {
      if (!e.retryable()) throw;
    } catch (const io::IoError&) {
      // Transport failures are retryable outages by definition; the partial
      // /unavailable accounting below handles them.
    }
  }

  std::vector<core::SliceScan> slices;
  slices.reserve(n);
  std::uint64_t covered = 0;
  std::size_t failed = 0;
  std::string first_failure;
  for (Attempt& a : attempts) {
    if (a.ok) {
      covered += a.scan.n_rows_scanned;
      slices.push_back(std::move(a.scan));
    } else {
      ++failed;
      if (first_failure.empty()) {
        try {
          std::rethrow_exception(a.error);
        } catch (const std::exception& e) {
          first_failure = e.what();
        }
      }
    }
  }

  const std::uint64_t total = info_.n_references;
  // Full coverage: every slice answered, or the failed slices held no rows
  // (possible when slices outnumber shards) — either way the merge sees the
  // whole reference set and stays bit-identical to an unsharded answer.
  const bool full = failed == 0 || (total > 0 && covered == total);
  if (!full && (!config_.allow_partial || slices.empty()))
    throw ServeError(true,
                     std::to_string(failed) + " of " + std::to_string(n) +
                         " backends unavailable: " + first_failure,
                     ErrorClass::unavailable);

  // Gather: fold the slices with the same (dist, insertion id) merge the
  // in-process sharded scan uses — bit-identical to an unsharded answer
  // when coverage is full, best-effort over the live slices otherwise.
  RankReply reply;
  reply.rankings = core::merge_slice_scans(info_.id_to_label, info_.knn_k,
                                           static_cast<std::size_t>(total), slices);
  reply.meta = {!full, full ? total : covered, total};
  if (reply.meta.degraded) degraded_total_->inc();
  return reply;
}

core::SliceScan CoordinatorHandler::scan(const nn::Matrix&) {
  throw std::runtime_error("a coordinator cannot serve a shard slice");
}

}  // namespace wf::serve
