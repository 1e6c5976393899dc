#pragma once

// Open-loop load generator for the serve_poisson phase. The send schedule is
// drawn from the seed before a step starts, requests go out at their
// scheduled instants whether or not earlier replies came back, and each
// request's latency is timed from its *intended* send time — so a stall
// that delays later sends is charged to them (no coordinated omission).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/frame.hpp"

namespace perfbench {

struct Schedule {
  double rate = 0.0;                 // target arrivals per second
  double seconds = 0.0;              // length of the step
  std::vector<double> send_at_s;     // intended send offsets, ascending, < seconds
  std::vector<std::uint32_t> query;  // which prepared request each send carries
};

// Poisson arrivals (exponential gaps) at `rate` over `seconds`, each request
// picking one of `n_queries` prepared requests uniformly. Pure function of
// its arguments.
Schedule poisson_schedule(double rate, double seconds, std::size_t n_queries, std::uint64_t seed);

struct StepResult {
  double rate = 0.0;
  std::size_t sent = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  double elapsed_s = 0.0;           // first intended send to last reply
  std::vector<double> latency_ms;   // per succeeded request in send order, from the intended send
  std::vector<double> rtt_ms;       // per succeeded request, from the actual send
  std::vector<double> lag_ms;       // per sent request: actual minus intended send
};

// Judges one reply: true when it answers `query` correctly.
using ReplyCheck = std::function<bool(std::uint32_t query, wf::serve::ParsedFrame& reply)>;

// Runs one step against host:port over `connections` sockets. Request i goes
// out on connection i % connections; the server answers each connection in
// order, so a receiver thread per connection pairs replies with requests.
// `frames` holds the encoded request of each prepared query. When `trace` is
// set, every request also lands in the span log.
StepResult run_open_loop(const std::string& host, std::uint16_t port, const Schedule& schedule,
                         const std::vector<std::string>& frames, const ReplyCheck& check,
                         std::size_t connections, bool trace);

}  // namespace perfbench
