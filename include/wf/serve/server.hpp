#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/attacker.hpp"
#include "serve/frame.hpp"
#include "serve/net.hpp"
#include "serve/queue.hpp"

namespace wf::core {
class AdaptiveFingerprinter;
}

namespace wf::serve {

// A rank answer plus its coverage marker. meta.degraded is only ever true
// for a coordinator answering from a subset of its backends in --partial
// mode; full-coverage replies omit the marker on the wire entirely.
struct RankReply {
  Rankings rankings;
  ReplyMeta meta;
};

// What a Server serves. One implementation answers from a loaded model
// (LocalHandler), the other scatters to remote shard backends and gathers
// (CoordinatorHandler in coordinator.hpp). rank/scan are called from the
// single worker thread only, so implementations need no locking of their
// own.
class Handler {
 public:
  virtual ~Handler() = default;
  virtual ServerInfo info() const = 0;
  // Full rankings for every row of `queries` (batch-composition
  // independent: the same query in any batch yields bit-identical output).
  virtual RankReply rank(const nn::Matrix& queries) = 0;
  // Scatter half for coordinator backends; throws std::runtime_error when
  // the handler cannot slice-scan (baseline attackers, coordinators).
  virtual core::SliceScan scan(const nn::Matrix& queries) = 0;
};

// Serves one loaded core::Attacker. For SCAN frames the attacker must be
// the adaptive fingerprinter (the only one with a sharded reference set);
// slice_index/slice_count select which shard slice this node scans.
class LocalHandler final : public Handler {
 public:
  explicit LocalHandler(std::unique_ptr<core::Attacker> attacker, std::size_t slice_index = 0,
                        std::size_t slice_count = 1);

  ServerInfo info() const override;
  RankReply rank(const nn::Matrix& queries) override;
  core::SliceScan scan(const nn::Matrix& queries) override;

 private:
  std::unique_ptr<core::Attacker> attacker_;
  const core::AdaptiveFingerprinter* adaptive_ = nullptr;  // null for baselines
  std::size_t slice_index_;
  std::size_t slice_count_;
};

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;            // 0: ephemeral, read back via Server::port()
  std::size_t queue_capacity = 64;   // pending requests before backpressure
  std::size_t max_batch = 1024;      // max queries per model call when coalescing
  // Bound on one request: finish receiving a started frame, compute and
  // send the reply. A breach answers ERRR(retryable, timeout). <= 0: never.
  int request_timeout_ms = 30000;
  // How long a connection may sit idle between frames before the server
  // closes it quietly (no unsolicited frame — that would desync the
  // strictly request/reply stream). <= 0: keep idle connections forever.
  int idle_timeout_ms = 0;
};

// The resident daemon: an accept loop, one thread per connection parsing
// frames, a bounded ring queue, and a single worker thread that drains the
// queue in waves and answers through per-request promises. STOP frames (or
// stop()) shut the whole thing down cleanly.
class Server {
 public:
  Server(std::shared_ptr<Handler> handler, ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds and spawns the accept + worker threads; throws io::IoError when
  // the port cannot be bound.
  void start();
  std::uint16_t port() const;

  // Blocks until a STOP frame arrives or stop() is called elsewhere.
  void wait();
  // Idempotent: closes the listener, drains the queue, joins every thread.
  void stop();

 private:
  struct Request {
    nn::Matrix queries;
    bool scan = false;
    std::promise<std::string> reply;  // encoded reply frame bytes
  };

  // One accepted connection. Its thread closes the socket and sets `done`
  // (both under connections_mutex_) as it ends; the accept loop joins done
  // connections as it takes new ones, so a closed connection holds neither a
  // descriptor nor an unjoined thread. stop() half-closes and joins the rest.
  struct Connection {
    Socket socket;
    std::thread thread;
    bool done = false;
  };

  void accept_loop();
  void run_connection(Connection& connection);
  void serve_connection(Socket& socket);
  void worker_loop();
  void process_wave(std::vector<Request> wave);
  void request_stop();
  // Encodes an ERRR reply AND counts it (serve.errors_total + per-class),
  // so every error path — connection parse, queue, worker — is metered.
  std::string error_frame(bool retryable, const std::string& message,
                          ErrorClass klass = ErrorClass::unknown);
  // The serve.handle_ms.<kind> histogram for a request kind; null for
  // kinds without one (STOP, unknown).
  obs::Histogram* handle_histogram(const std::string& kind) const;

  std::shared_ptr<Handler> handler_;
  ServerConfig config_;
  std::unique_ptr<Listener> listener_;
  RingQueue<Request> queue_;
  std::thread accept_thread_;
  std::thread worker_thread_;

  std::mutex connections_mutex_;
  std::list<Connection> connections_;  // stable addresses for the threads

  std::mutex stop_mutex_;
  std::condition_variable stop_requested_cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;

  // Cached obs::Registry::global() instruments (references are stable for
  // the registry's lifetime), so the hot paths never lock the registry map.
  obs::Counter* requests_total_;
  obs::Counter* queries_total_;
  obs::Counter* batches_total_;
  obs::Counter* rejected_total_;
  obs::Counter* timeouts_total_;
  obs::Counter* errors_total_;
  obs::Counter* errors_by_class_[6];
  obs::Gauge* queue_depth_;
  obs::Histogram* wave_batch_;
  obs::Histogram* handle_helo_;
  obs::Histogram* handle_qryb_;
  obs::Histogram* handle_scan_;
  obs::Histogram* handle_stat_;
};

}  // namespace wf::serve
