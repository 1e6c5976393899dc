#include "serve/fault.hpp"

#include <chrono>
#include <stdexcept>

namespace wf::serve {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::drop: return "drop";
    case FaultKind::delay: return "delay";
    case FaultKind::truncate: return "truncate";
    case FaultKind::corrupt: return "corrupt";
    case FaultKind::blackhole: return "blackhole";
    case FaultKind::none: break;
  }
  return "none";
}

FaultKind parse_fault_kind(const std::string& name) {
  for (const FaultKind kind : {FaultKind::none, FaultKind::drop, FaultKind::delay,
                               FaultKind::truncate, FaultKind::corrupt, FaultKind::blackhole})
    if (name == fault_kind_name(kind)) return kind;
  throw std::invalid_argument("unknown fault kind \"" + name +
                              "\" (none|drop|delay|truncate|corrupt|blackhole)");
}

FaultProxy::FaultProxy(const std::string& host, std::uint16_t listen_port,
                       const BackendAddress& upstream, const FaultPlan& plan)
    : upstream_(upstream), plan_(plan), listener_(host, listen_port) {
  accept_thread_ = std::thread(&FaultProxy::accept_loop, this);
}

FaultProxy::~FaultProxy() { stop(); }

void FaultProxy::accept_loop() {
  util::Rng root(plan_.seed);
  while (true) {
    Socket client;
    try {
      client = listener_.accept();
    } catch (const io::IoError&) {
      return;  // chaos tooling for short runs: a failed accept ends the proxy
    }
    if (!client.valid()) return;  // listener closed: shutting down
    const std::uint64_t id = n_connections_.fetch_add(1);
    Socket upstream;
    try {
      ConnectOptions options;
      options.connect_timeout_ms = 5000;
      upstream = tcp_connect(upstream_.host, upstream_.port, options);
    } catch (const io::IoError&) {
      continue;  // upstream gone: the client sees an immediate close
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    connections_.push_back(std::make_unique<Connection>());
    Connection& connection = *connections_.back();
    connection.client = std::move(client);
    connection.upstream = std::move(upstream);
    // Distinct deterministic streams per connection and direction.
    pump_threads_.emplace_back(&FaultProxy::pump, this, std::ref(connection), false,
                               root.fork(2 * id));
    pump_threads_.emplace_back(&FaultProxy::pump, this, std::ref(connection), true,
                               root.fork(2 * id + 1));
  }
}

void FaultProxy::pump(Connection& connection, bool downstream, util::Rng rng) {
  Socket& from = downstream ? connection.upstream : connection.client;
  Socket& to = downstream ? connection.client : connection.upstream;
  std::vector<char> buffer(16384);
  bool blackholed = false;
  try {
    while (true) {
      const std::size_t n = from.recv_some(buffer.data(), buffer.size());
      if (n == 0) {
        // EOF propagates as a half-close so in-flight bytes the other way
        // still arrive — exactly what a well-behaved middlebox does.
        to.shutdown_write();
        return;
      }
      n_chunks_.fetch_add(1);
      if (blackholed) continue;  // reading on, forwarding nothing
      const bool fault =
          plan_.kind != FaultKind::none && plan_.rate > 0 && rng.bernoulli(plan_.rate);
      if (fault) {
        n_faults_.fetch_add(1);
        switch (plan_.kind) {
          case FaultKind::drop:
            continue;  // swallow this chunk, keep the stream running
          case FaultKind::delay:
            // An injected fault, not a retry: the proxy's job is to stall.
            // wf-lint: allow(retry-policy)
            std::this_thread::sleep_for(std::chrono::milliseconds(plan_.delay_ms));
            break;  // then forward untouched
          case FaultKind::truncate:
            if (n > 1) to.send_all(buffer.data(), n / 2);
            connection.client.shutdown_both();
            connection.upstream.shutdown_both();
            return;
          case FaultKind::corrupt: {
            // Flip a handful of bytes at seeded positions.
            const std::int64_t flips = rng.range(1, 4);
            for (std::int64_t f = 0; f < flips; ++f)
              buffer[rng.index(n)] ^= static_cast<char>(0x5a);
            break;
          }
          case FaultKind::blackhole:
            blackholed = true;  // the peer now waits for bytes that never come
            continue;
          case FaultKind::none:
            break;
        }
      }
      to.send_all(buffer.data(), n);
    }
  } catch (const io::IoError&) {
    // Either side closed (peer reset, or stop() tearing the proxy down):
    // cut both directions so the opposite pump exits too.
    connection.client.shutdown_both();
    connection.upstream.shutdown_both();
  }
}

void FaultProxy::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  stopped_cv_.wait(lock, [&] { return stopped_; });
}

void FaultProxy::stop() {
  std::vector<std::thread> threads;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
    for (const std::unique_ptr<Connection>& c : connections_) {
      c->client.shutdown_both();
      c->upstream.shutdown_both();
    }
    threads.swap(pump_threads_);
  }
  stopped_cv_.notify_all();
  listener_.close();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& t : threads)
    if (t.joinable()) t.join();
}

FaultProxyStats FaultProxy::stats() const {
  FaultProxyStats stats;
  stats.connections = n_connections_.load();
  stats.chunks = n_chunks_.load();
  stats.faults = n_faults_.load();
  return stats;
}

}  // namespace wf::serve
