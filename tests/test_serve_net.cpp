// The deadline-aware socket layer under adverse delivery: frames split
// across arbitrarily many sends still parse, a disconnect at every byte
// boundary classifies as clean close vs truncation (never a timeout), a
// silent peer surfaces as TimeoutError at the deadline, tcp_connect names
// its attempt count on failure, the RingQueue distinguishes backpressure
// from shutdown when it refuses a push, and a Server closes each finished
// connection, gives back its descriptor and outlives running out of
// descriptors.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/net.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "test_common.hpp"

namespace {

using namespace wf;

void test_deadline() {
  const serve::Deadline never;
  CHECK(!never.finite() && !never.expired());
  CHECK(never.poll_timeout_ms() == -1);
  // <= 0 means "never", so a config value of 0 disables timeouts end to end.
  CHECK(!serve::Deadline::after_ms(0).finite());
  CHECK(!serve::Deadline::after_ms(-5).finite());

  const serve::Deadline soon = serve::Deadline::after_ms(1);
  CHECK(soon.finite());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  CHECK(soon.expired());
  CHECK(soon.poll_timeout_ms() == 0);

  const serve::Deadline later = serve::Deadline::after_ms(60000);
  CHECK(!later.expired());
  CHECK(serve::Deadline::sooner(later, never).finite());
  CHECK(!serve::Deadline::sooner(never, never).finite());
  CHECK(serve::Deadline::sooner(soon, later).expired());
}

// A frame is one logical unit but TCP owes it no delivery shape: the
// receiver must reassemble it from any split across sends.
void test_split_delivery() {
  serve::Listener listener("127.0.0.1", 0);
  const std::string frame = serve::encode_frame(serve::kFrameHello);
  std::thread sender([&] {
    serve::Socket sock = serve::tcp_connect("127.0.0.1", listener.port(), 2000);
    // One frame dribbled a byte per send...
    for (const char byte : frame) {
      sock.send_all(&byte, 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // ...then one frame split at every interior boundary.
    for (std::size_t cut = 1; cut + 1 < frame.size(); ++cut) {
      sock.send_all(frame.data(), cut);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      sock.send_all(frame.data() + cut, frame.size() - cut);
    }
  });
  serve::Socket sock = listener.accept();
  CHECK(sock.valid());
  std::size_t frames = 0;
  while (const auto parsed = serve::recv_frame(sock, serve::Deadline::after_ms(10000))) {
    CHECK(parsed->kind == serve::kFrameHello);
    ++frames;
  }
  CHECK(frames == frame.size() - 1);  // 1 byte-wise + size-2 split variants
  sender.join();
}

// A peer death at every byte boundary of a frame: before any byte it is a
// clean close (nullopt); mid-frame it is an io::IoError — and specifically
// not a TimeoutError, so retry loops can tell a cut from a hang.
void test_disconnect_classification() {
  serve::Listener listener("127.0.0.1", 0);
  const std::string frame = serve::encode_frame(serve::kFrameHello);
  for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
    std::thread sender([&] {
      serve::Socket sock = serve::tcp_connect("127.0.0.1", listener.port(), 2000);
      if (cut > 0) sock.send_all(frame.data(), cut);
      sock.close();
    });
    serve::Socket sock = listener.accept();
    CHECK(sock.valid());
    if (cut == 0) {
      CHECK(!serve::recv_frame(sock).has_value());
    } else if (cut == frame.size()) {
      CHECK(serve::recv_frame(sock).has_value());
      CHECK(!serve::recv_frame(sock).has_value());
    } else {
      bool truncated = false, timed_out = false;
      try {
        serve::recv_frame(sock, serve::Deadline::after_ms(5000));
      } catch (const serve::TimeoutError&) {
        timed_out = true;
      } catch (const io::IoError&) {
        truncated = true;
      }
      CHECK(truncated && !timed_out);
    }
    sender.join();
  }
}

// A connected but silent peer must surface as TimeoutError at the deadline
// — whether it never starts a frame or stalls in the middle of one.
void test_recv_timeout() {
  serve::Listener listener("127.0.0.1", 0);
  const std::string frame = serve::encode_frame(serve::kFrameHello);
  for (const std::size_t sent_bytes : {std::size_t{0}, std::size_t{4}}) {
    std::mutex m;
    std::condition_variable done_cv;
    bool done = false;
    std::thread peer([&] {
      serve::Socket sock = serve::tcp_connect("127.0.0.1", listener.port(), 2000);
      if (sent_bytes > 0) sock.send_all(frame.data(), sent_bytes);
      // Hold the connection open past the receiver's deadline.
      std::unique_lock<std::mutex> lock(m);
      done_cv.wait(lock, [&] { return done; });
    });
    serve::Socket sock = listener.accept();
    bool timed_out = false;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      serve::recv_frame(sock, serve::Deadline::after_ms(100));
    } catch (const serve::TimeoutError&) {
      timed_out = true;
    }
    CHECK(timed_out);
    CHECK(std::chrono::steady_clock::now() - t0 >= std::chrono::milliseconds(90));
    {
      const std::lock_guard<std::mutex> lock(m);
      done = true;
    }
    done_cv.notify_one();
    peer.join();
  }
}

void test_connect_failure_names_attempts() {
  std::uint16_t dead_port = 0;
  {
    serve::Listener probe("127.0.0.1", 0);
    dead_port = probe.port();
  }  // closed again: connections to dead_port are now refused

  // The two-argument form makes exactly one attempt and says so.
  bool threw = false;
  try {
    serve::tcp_connect("127.0.0.1", dead_port, 0);
  } catch (const io::IoError& e) {
    threw = true;
    const std::string what = e.what();
    CHECK(what.find("cannot connect") != std::string::npos);
    CHECK(what.find("after 1 attempt:") != std::string::npos);
  }
  CHECK(threw);

  // A retry window keeps trying on backoff, then reports how often.
  serve::ConnectOptions options;
  options.retry_ms = 150;
  options.backoff.initial_backoff_ms = 10;
  options.backoff.max_backoff_ms = 20;
  options.backoff.jitter = 0.0;
  threw = false;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    serve::tcp_connect("127.0.0.1", dead_port, options);
  } catch (const io::IoError& e) {
    threw = true;
    const std::string what = e.what();
    CHECK(what.find(" attempts:") != std::string::npos);  // plural: it retried
  }
  CHECK(threw);
  CHECK(std::chrono::steady_clock::now() - t0 >= std::chrono::milliseconds(140));
}

void test_queue_outcomes() {
  using Outcome = serve::RingQueue<int>::PushOutcome;
  serve::RingQueue<int> queue(2);
  CHECK(queue.offer(1) == Outcome::accepted);
  CHECK(queue.offer(2) == Outcome::accepted);
  CHECK(queue.offer(3) == Outcome::full);  // backpressure: transient
  const std::vector<int> wave = queue.pop_wave(1);
  CHECK(wave.size() == 1 && wave[0] == 1);
  CHECK(queue.offer(4) == Outcome::accepted);  // slot freed
  queue.close();
  CHECK(queue.offer(5) == Outcome::closed);  // shutdown: go elsewhere
}

// Answers HELO and nothing else: the connection tests need no model.
class HelloHandler final : public serve::Handler {
 public:
  serve::ServerInfo info() const override {
    serve::ServerInfo info;
    info.attacker = "hello";
    return info;
  }
  serve::RankReply rank(const nn::Matrix&) override {
    throw std::runtime_error("HelloHandler: no ranking");
  }
  core::SliceScan scan(const nn::Matrix&) override {
    throw std::runtime_error("HelloHandler: no scans");
  }
};

// The process's virtual size in KiB (Linux /proc). An exited thread that
// was never joined keeps its stack mapped, so unjoined threads show here.
long virtual_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  long value = 0;
  while (status >> key) {
    if (key == "VmSize:" && status >> value) return value;
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

bool answers_hello(serve::Client& client) {
  try {
    return client.hello().attacker == "hello";
  } catch (const io::IoError&) {
    return false;
  }
}

bool hello_answered(std::uint16_t port, const serve::ClientConfig& config) {
  try {
    serve::Client client("127.0.0.1", port, config);
    return answers_hello(client);
  } catch (const io::IoError&) {
    return false;
  }
}

// A daemon runs for weeks: a closed connection must give back its
// descriptor and thread, and a failed accept (out of descriptors) must not
// end the accept loop. Runs under a soft RLIMIT_NOFILE of 64, so a leak
// shows within a few dozen connections; the limit is restored afterwards.
void test_connection_lifecycle() {
  rlimit saved{};
  CHECK(::getrlimit(RLIMIT_NOFILE, &saved) == 0);
  rlimit low = saved;
  low.rlim_cur = std::min<rlim_t>(64, saved.rlim_cur);
  CHECK(::setrlimit(RLIMIT_NOFILE, &low) == 0);
  {
    serve::Server server(std::make_shared<HelloHandler>(), serve::ServerConfig{});
    server.start();
    const serve::ClientConfig quick{.timeout_ms = 1000};

    // More sequential connections than the process has descriptors, and
    // their threads are joined as they go, not kept until stop(). The first
    // ten warm up the thread stacks and allocator arenas the rest reuse.
    int answered = 0;
    long vm_before = 0;
    while (answered < 150 && hello_answered(server.port(), quick))
      if (++answered == 10) vm_before = virtual_kib();
    CHECK(answered == 150);
    // 140 unjoined 8 MiB thread stacks would map over 1 GiB.
    CHECK(virtual_kib() - vm_before < 256 * 1024);

    // Hold connections until one fails (client or server side out of
    // descriptors), then close them all: the next HELO is answered.
    std::vector<std::unique_ptr<serve::Client>> held;
    bool exhausted = false;
    while (!exhausted && held.size() < 200) {
      try {
        auto client = std::make_unique<serve::Client>("127.0.0.1", server.port(), quick);
        client->hello();
        held.push_back(std::move(client));
      } catch (const io::IoError&) {
        exhausted = true;
      }
    }
    CHECK(exhausted);
    held.clear();
    const serve::ClientConfig patient{.connect_retry_ms = 2000, .timeout_ms = 5000};
    CHECK(hello_answered(server.port(), patient));

    // The server side for certain: with every descriptor but one taken,
    // the client gets it and the server's accept fails. The accept loop
    // backs off (retry.backoffs_total moves) instead of exiting, and takes
    // the waiting connection once descriptors are free again.
    std::vector<int> filler;
    const auto fill = [&] {
      while (filler.size() < 200) {
        const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        if (fd < 0) return;
        filler.push_back(fd);
      }
    };
    fill();
    // Once more after the last connection threads have closed their sockets.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    fill();
    CHECK(!filler.empty() && filler.size() < 200);
    ::close(filler.back());
    filler.pop_back();
    const obs::Counter& backoffs = obs::Registry::global().counter("retry.backoffs_total");
    const std::uint64_t backoffs_before = backoffs.value();
    serve::Client waiting("127.0.0.1", server.port(), patient);
    const serve::Deadline give_up = serve::Deadline::after_ms(5000);
    while (backoffs.value() == backoffs_before && !give_up.expired())
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    CHECK(backoffs.value() > backoffs_before);
    for (const int fd : filler) ::close(fd);
    CHECK(answers_hello(waiting));
    CHECK(hello_answered(server.port(), quick));
    server.stop();
  }
  CHECK(::setrlimit(RLIMIT_NOFILE, &saved) == 0);
}

// A server-side hangup (here the idle timeout) closes the socket as the
// connection thread ends: the peer reads EOF, not silence.
void test_hangup_closes_socket() {
  serve::ServerConfig config;
  config.idle_timeout_ms = 50;
  serve::Server server(std::make_shared<HelloHandler>(), config);
  server.start();
  serve::Socket sock = serve::tcp_connect("127.0.0.1", server.port(), 2000);
  bool eof = false;
  try {
    eof = !serve::recv_frame(sock, serve::Deadline::after_ms(5000)).has_value();
  } catch (const io::IoError&) {
    eof = false;  // timed out: the server kept the connection open
  }
  CHECK(eof);
  server.stop();
}

}  // namespace

int main() {
  test_deadline();
  test_split_delivery();
  test_disconnect_classification();
  test_recv_timeout();
  test_queue_outcomes();
  test_connect_failure_names_attempts();
  test_connection_lifecycle();
  test_hangup_closes_socket();
  return TEST_MAIN_RESULT();
}
