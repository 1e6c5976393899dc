#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "io/binary.hpp"
#include "serve/retry.hpp"

namespace wf::serve {

// A blocking call that exceeded its Deadline. Subclasses io::IoError so
// existing transport-failure handling keeps working, while retry loops can
// classify timeouts specifically (a hung peer is retryable; a malformed
// frame is not).
class TimeoutError : public io::IoError {
 public:
  explicit TimeoutError(const std::string& what) : io::IoError(what) {}
};

// An absolute point in time a blocking socket call must not outlive. The
// default-constructed Deadline never expires (the pre-PR blocking
// behaviour); after_ms(t) expires t milliseconds from now, and t <= 0 also
// means "never" so a config value of 0 disables the timeout end to end.
// Deadlines are absolute, so one Deadline threaded through a multi-step
// operation (send + recv + parse) bounds the whole operation, not each step.
class Deadline {
 public:
  Deadline() = default;  // never expires

  static Deadline after_ms(long ms) {
    Deadline d;
    if (ms > 0) {
      d.finite_ = true;
      d.at_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    }
    return d;
  }

  // Whichever of the two expires first.
  static Deadline sooner(const Deadline& a, const Deadline& b) {
    if (!a.finite_) return b;
    if (!b.finite_) return a;
    return a.at_ < b.at_ ? a : b;
  }

  bool finite() const { return finite_; }

  bool expired() const {
    return finite_ && std::chrono::steady_clock::now() >= at_;
  }

  // Remaining time as a poll(2) timeout: -1 when infinite, else clamped to
  // [0, INT_MAX] milliseconds.
  int poll_timeout_ms() const;

 private:
  std::chrono::steady_clock::time_point at_{};
  bool finite_ = false;
};

// Thin RAII wrapper over one connected TCP socket. Sockets are non-blocking
// underneath; every I/O call waits in poll(2) up to its Deadline, so a hung
// peer surfaces as a TimeoutError instead of a wedged thread. Failures
// surface as io::IoError so the frame layer above reports them the same way
// as any other truncated stream.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_.exchange(-1)) {}
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Writes all n bytes; throws io::IoError on a closed or failed socket and
  // TimeoutError when the peer stops draining before the deadline.
  void send_all(const void* data, std::size_t n, const Deadline& deadline = {});

  // Reads exactly n bytes. Returns false on a clean EOF before the first
  // byte (the peer closed between frames); throws io::IoError on EOF
  // mid-read or a socket error, TimeoutError past the deadline.
  bool recv_exact(void* data, std::size_t n, const Deadline& deadline = {});

  // Reads up to max bytes as soon as any arrive; 0 means EOF. Used by the
  // fault proxy, which forwards streams without understanding frames.
  std::size_t recv_some(void* data, std::size_t max, const Deadline& deadline = {});

  // Wakes any thread blocked in recv_exact/send_all on this socket.
  void shutdown_both();
  // Half-closes: wakes readers but lets in-flight replies finish sending
  // (the server's graceful drain), or propagates EOF downstream (the proxy).
  void shutdown_read();
  void shutdown_write();
  void close();

 private:
  // Atomic so a shutdown_both() from the server's stop path can race the
  // connection thread's blocking reads without UB.
  std::atomic<int> fd_{-1};
};

// How tcp_connect paces itself. `retry_ms` keeps retrying transient
// connection failures (refused, reset, timed out) for up to that long — it
// bounds the loop by wall clock while `backoff` paces the attempts
// exponentially with seeded jitter instead of the old fixed 50 ms spin.
// `connect_timeout_ms` bounds each individual connect attempt, so a
// black-holed address cannot wedge the caller.
struct ConnectOptions {
  int retry_ms = 0;
  int connect_timeout_ms = 10000;
  RetryPolicy backoff{};
};

// Connects to host:port; throws io::IoError (naming the attempt count) on
// failure. The two-argument form performs exactly one bounded attempt.
Socket tcp_connect(const std::string& host, std::uint16_t port, const ConnectOptions& options);
Socket tcp_connect(const std::string& host, std::uint16_t port, int retry_ms = 0);

// Listening TCP socket; port 0 binds an ephemeral port (see port()).
class Listener {
 public:
  Listener(const std::string& host, std::uint16_t port);
  ~Listener() { close(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  std::uint16_t port() const { return port_; }

  // Blocks for the next connection up to `deadline` (TimeoutError past it);
  // returns an invalid Socket once the listener has been closed. A failed
  // accept on an open listener (EMFILE, ENFILE, ENOBUFS, ECONNABORTED...)
  // throws io::IoError: the listener still works, so callers retry.
  Socket accept(const Deadline& deadline = {});
  void close();

 private:
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace wf::serve
