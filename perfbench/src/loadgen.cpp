#include "loadgen.hpp"

#include <atomic>
#include <cmath>
#include <exception>
#include <thread>

#include "common.hpp"
#include "util/rng.hpp"

namespace perfbench {

Schedule poisson_schedule(double rate, double seconds, std::size_t n_queries,
                          std::uint64_t seed) {
  Schedule schedule;
  schedule.rate = rate;
  schedule.seconds = seconds;
  wf::util::Rng rng(seed ^ 0x5eedf00dULL);
  double t = 0.0;
  while (rate > 0.0) {
    t += -std::log1p(-rng.uniform()) / rate;  // exponential gap, mean 1 / rate
    if (t >= seconds) break;
    schedule.send_at_s.push_back(t);
    schedule.query.push_back(static_cast<std::uint32_t>(rng.index(n_queries)));
  }
  return schedule;
}

namespace {

struct Outcome {
  bool ok = false;
  Clock::time_point sent{};
  Clock::time_point done{};
};

}  // namespace

StepResult run_open_loop(const std::string& host, std::uint16_t port, const Schedule& schedule,
                         const std::vector<std::string>& frames, const ReplyCheck& check,
                         std::size_t connections, bool trace) {
  const std::size_t n = schedule.send_at_s.size();
  if (connections == 0) connections = 1;
  std::vector<wf::serve::Socket> sockets;
  for (std::size_t c = 0; c < connections; ++c)
    sockets.push_back(wf::serve::tcp_connect(host, port, 2000));

  std::vector<Outcome> outcomes(n);
  // Each sender publishes its send instant before the bytes leave, and its
  // receiver only reads it after the matching reply arrived; the per-slot
  // atomics make that hand-off well defined. A failed send shuts the socket
  // down, which ends the receiver's loop too.
  std::vector<std::atomic<std::int64_t>> sent_ns(n);
  std::vector<std::atomic<bool>> sent_ok(n);
  for (std::size_t i = 0; i < n; ++i) {
    sent_ns[i].store(0);
    sent_ok[i].store(false);
  }

  // Sends and receives start a little in the future so every thread is
  // parked before the first intended send.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto intended = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule.send_at_s[i]));
  };

  // One sender serves every connection and spins until each intended send
  // instant instead of sleeping: on a virtual machine a sleeping thread can
  // wake milliseconds late, which would turn the generator's own wake-up
  // jitter into latency (and keeps the vCPUs from idling between requests).
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    std::vector<bool> broken(connections, false);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = i % connections;
      if (broken[c]) continue;
      const Clock::time_point due = intended(i);
      while (Clock::now() < due) {
      }
      const Clock::time_point now = Clock::now();
      sent_ns[i].store(std::chrono::duration_cast<std::chrono::nanoseconds>(now - start).count());
      sent_ok[i].store(true);
      try {
        wf::serve::send_frame(sockets[c], frames[schedule.query[i]],
                              wf::serve::Deadline::after_ms(10000));
      } catch (const std::exception&) {
        // The receiver sees the missing send and counts the request as
        // failed; later requests on this connection fail the same way.
        sockets[c].shutdown_both();
        broken[c] = true;
      }
    }
  });
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < n; i += connections) {
        try {
          std::optional<wf::serve::ParsedFrame> reply =
              wf::serve::recv_frame(sockets[c], wf::serve::Deadline::after_ms(10000));
          const Clock::time_point done = Clock::now();
          if (!reply || !sent_ok[i].load()) return;
          outcomes[i].done = done;
          outcomes[i].sent = start + std::chrono::nanoseconds(sent_ns[i].load());
          outcomes[i].ok = check(schedule.query[i], *reply);
        } catch (const std::exception&) {
          sockets[c].shutdown_both();
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Request ids stay unique across the steps of one process.
  static std::atomic<std::uint64_t> next_request_id{1};
  const std::uint64_t first_request_id = next_request_id.fetch_add(n);
  StepResult result;
  result.rate = schedule.rate;
  result.sent = n;
  Clock::time_point last = start;
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& o = outcomes[i];
    if (sent_ok[i].load())
      result.lag_ms.push_back(static_cast<double>(sent_ns[i].load()) / 1e6 -
                              schedule.send_at_s[i] * 1e3);
    if (!o.ok) {
      ++result.failed;
      continue;
    }
    ++result.succeeded;
    const double latency = std::chrono::duration<double, std::milli>(o.done - intended(i)).count();
    result.latency_ms.push_back(latency);
    result.rtt_ms.push_back(std::chrono::duration<double, std::milli>(o.done - o.sent).count());
    if (o.done > last) last = o.done;
    if (trace) {
      SpanLog::instance().record("serve.request", intended(i), o.done, first_request_id + i);
      SpanLog::instance().record("serve.client_rtt", o.sent, o.done, first_request_id + i);
    }
  }
  result.elapsed_s = std::chrono::duration<double>(last - start).count();
  return result;
}

}  // namespace perfbench
