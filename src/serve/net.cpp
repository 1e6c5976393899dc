#include "serve/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <thread>

namespace wf::serve {

namespace {

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw io::IoError("not an IPv4 address: " + host);
  return addr;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Blocks in poll(2) until fd is ready for `events`, the deadline passes
// (TimeoutError) or the fd is torn down under us (io::IoError). A
// shutdown() from another thread makes the fd readable/writable, so blocked
// callers wake and observe the EOF/EPIPE on their next syscall.
void wait_io(int fd, short events, const Deadline& deadline, const char* what) {
  while (true) {
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int r = ::poll(&p, 1, deadline.poll_timeout_ms());
    if (r > 0) return;  // ready (or POLLERR/POLLHUP: surface via the syscall)
    if (r == 0) throw TimeoutError(std::string(what) + " timed out");
    if (errno == EINTR) continue;
    throw io::IoError(std::string("poll failed: ") + std::strerror(errno));
  }
}

}  // namespace

int Deadline::poll_timeout_ms() const {
  if (!finite_) return -1;
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      at_ - std::chrono::steady_clock::now());
  if (remaining.count() <= 0) return 0;
  if (remaining.count() > INT_MAX) return INT_MAX;
  return static_cast<int>(remaining.count());
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_.exchange(-1);
  }
  return *this;
}

void Socket::send_all(const void* data, std::size_t n, const Deadline& deadline) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const int fd = fd_.load();
    if (fd < 0) throw io::IoError("send on a closed socket");
    const ssize_t sent = ::send(fd, p, n, MSG_NOSIGNAL);
    if (sent > 0) {
      p += sent;
      n -= static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_io(fd, POLLOUT, deadline, "send");
      continue;
    }
    throw io::IoError(std::string("send failed: ") + std::strerror(errno));
  }
}

bool Socket::recv_exact(void* data, std::size_t n, const Deadline& deadline) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    const int fd = fd_.load();
    if (fd < 0) throw io::IoError("recv on a closed socket");
    const ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0) return false;  // clean EOF at a frame boundary
      throw io::IoError("unexpected end of stream");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      wait_io(fd, POLLIN, deadline, "recv");
      continue;
    }
    throw io::IoError(std::string("recv failed: ") + std::strerror(errno));
  }
  return true;
}

std::size_t Socket::recv_some(void* data, std::size_t max, const Deadline& deadline) {
  while (true) {
    const int fd = fd_.load();
    if (fd < 0) throw io::IoError("recv on a closed socket");
    const ssize_t r = ::recv(fd, data, max, 0);
    if (r >= 0) return static_cast<std::size_t>(r);  // 0: EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      wait_io(fd, POLLIN, deadline, "recv");
      continue;
    }
    throw io::IoError(std::string("recv failed: ") + std::strerror(errno));
  }
}

void Socket::shutdown_both() {
  const int fd = fd_.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void Socket::shutdown_read() {
  const int fd = fd_.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RD);
}

void Socket::shutdown_write() {
  const int fd = fd_.load();
  if (fd >= 0) ::shutdown(fd, SHUT_WR);
}

void Socket::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
}

Socket tcp_connect(const std::string& host, std::uint16_t port, const ConnectOptions& options) {
  const sockaddr_in addr = make_addr(host, port);
  const Deadline window = Deadline::after_ms(options.retry_ms);
  Backoff backoff(options.backoff, (static_cast<std::uint64_t>(port) << 16) ^ options.retry_ms);
  int attempts = 0;
  while (true) {
    ++attempts;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw io::IoError(std::string("socket failed: ") + std::strerror(errno));
    set_nonblocking(fd);
    Socket sock(fd);
    int err = 0;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      err = errno;
      if (err == EINPROGRESS || err == EINTR) {
        // Await writability under the per-attempt deadline (also bounded by
        // the whole retry window), then read the final verdict.
        const Deadline attempt = Deadline::sooner(
            Deadline::after_ms(options.connect_timeout_ms), window);
        try {
          wait_io(fd, POLLOUT, attempt, "connect");
          int so_err = 0;
          socklen_t len = sizeof(so_err);
          ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_err, &len);
          err = so_err;
        } catch (const TimeoutError&) {
          err = ETIMEDOUT;
        }
      }
    }
    if (err == 0) {
      set_nodelay(fd);
      return sock;
    }
    const bool transient = err == ECONNREFUSED || err == ETIMEDOUT || err == ECONNRESET ||
                           err == ECONNABORTED || err == EHOSTUNREACH || err == ENETUNREACH;
    if (!transient || window.expired() || !window.finite())
      throw io::IoError("cannot connect to " + host + ":" + std::to_string(port) + " after " +
                        std::to_string(attempts) + " attempt" + (attempts == 1 ? "" : "s") +
                        ": " + std::strerror(err));
    // The retry window bounds the loop by wall clock; the policy only paces
    // it, so cap the sleep at the window's remainder.
    const int delay = std::min(backoff.next_delay_ms(), window.poll_timeout_ms());
    std::this_thread::sleep_for(std::chrono::milliseconds(std::max(delay, 0)));
  }
}

Socket tcp_connect(const std::string& host, std::uint16_t port, int retry_ms) {
  ConnectOptions options;
  options.retry_ms = retry_ms;
  return tcp_connect(host, port, options);
}

Listener::Listener(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw io::IoError(std::string("socket failed: ") + std::strerror(errno));
  fd_ = fd;
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(host, port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string what = std::string("cannot bind ") + host + ":" +
                             std::to_string(port) + ": " + std::strerror(errno);
    close();
    throw io::IoError(what);
  }
  if (::listen(fd_, 64) != 0) {
    const std::string what = std::string("listen failed: ") + std::strerror(errno);
    close();
    throw io::IoError(what);
  }
  set_nonblocking(fd);
  socklen_t len = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

Socket Listener::accept(const Deadline& deadline) {
  while (true) {
    const int lfd = fd_.load();
    if (lfd < 0) return Socket();
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      set_nonblocking(fd);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      try {
        wait_io(lfd, POLLIN, deadline, "accept");
      } catch (const TimeoutError&) {
        throw;
      } catch (const io::IoError&) {
        return Socket();  // fd torn down while we waited
      }
      continue;
    }
    const int err = errno;
    if (fd_.load() < 0) return Socket();  // closed under us: shutting down
    throw io::IoError(std::string("accept failed: ") + std::strerror(err));
  }
}

void Listener::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() wakes a thread blocked in accept(); close() alone does not
    // reliably do so on Linux.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace wf::serve
