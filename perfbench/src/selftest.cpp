// The benchmark's own tests: the open-loop schedule is a pure function of its
// seed, and its realised arrival rate matches the target.

#include <cmath>
#include <cstdio>

#include "loadgen.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAILED: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::poisson_schedule;
  using perfbench::Schedule;

  const Schedule a = poisson_schedule(2000.0, 5.0, 250, 42);
  const Schedule b = poisson_schedule(2000.0, 5.0, 250, 42);
  const Schedule c = poisson_schedule(2000.0, 5.0, 250, 43);
  expect(a.send_at_s == b.send_at_s && a.query == b.query, "one seed gives one schedule");
  expect(a.send_at_s != c.send_at_s, "another seed gives another schedule");

  bool ordered = true;
  bool in_range = true;
  for (std::size_t i = 0; i < a.send_at_s.size(); ++i) {
    if (i > 0 && a.send_at_s[i] < a.send_at_s[i - 1]) ordered = false;
    if (a.send_at_s[i] < 0.0 || a.send_at_s[i] >= a.seconds || a.query[i] >= 250) in_range = false;
  }
  expect(ordered, "send times ascend");
  expect(in_range, "send times and query picks stay in range");

  // Mean rate over many seeds: 10,000 expected arrivals per schedule, so the
  // realised count is within 4 standard deviations (4%) of the target, and
  // the mean over 20 seeds within 1%.
  double total = 0.0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Schedule s = poisson_schedule(2000.0, 5.0, 250, seed);
    const double rate = static_cast<double>(s.send_at_s.size()) / s.seconds;
    expect(std::fabs(rate / 2000.0 - 1.0) < 0.04, "one schedule's rate is near its target");
    total += rate;
  }
  expect(std::fabs(total / 20.0 / 2000.0 - 1.0) < 0.01, "mean rate matches the target");

  // Exponential gaps: the coefficient of variation of a Poisson process's
  // inter-arrival times is 1.
  double sum = 0.0;
  double sq = 0.0;
  for (std::size_t i = 1; i < a.send_at_s.size(); ++i) {
    const double gap = a.send_at_s[i] - a.send_at_s[i - 1];
    sum += gap;
    sq += gap * gap;
  }
  const double n = static_cast<double>(a.send_at_s.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sq / n - mean * mean) / mean;
  expect(std::fabs(cv - 1.0) < 0.05, "inter-arrival gaps are exponential");

  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
