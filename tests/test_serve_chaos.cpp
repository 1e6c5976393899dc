// Chaos suite for the serving stack: every fault kind injected by the
// FaultProxy must cost at most the faulted request — each query either
// comes back bit-identical to the in-process answer or raises a classified
// error, and the daemon survives the whole sweep. Plus failover: a killed
// backend fails queries fast with ERRR(unavailable) when partial answers
// are off, degrades them (DGRD meta, covered < total) when they are on,
// and heals back to full bit-identical coverage once the backend revives.
// Plus the graceful drain: a request in flight during stop() still gets
// its reply, and one arriving mid-drain gets ERRR(shutdown), not a cut.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/adaptive.hpp"
#include "data/build.hpp"
#include "data/splits.hpp"
#include "netsim/browser.hpp"
#include "serve/client.hpp"
#include "serve/coordinator.hpp"
#include "serve/fault.hpp"
#include "serve/server.hpp"
#include "test_common.hpp"

using namespace wf;

namespace {

using Expected = std::vector<std::vector<core::RankedLabel>>;

bool rankings_equal(const Expected& a, const Expected& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t r = 0; r < a[i].size(); ++r) {
      if (a[i][r].label != b[i][r].label || a[i][r].votes != b[i][r].votes ||
          a[i][r].distance != b[i][r].distance)
        return false;
    }
  }
  return true;
}

nn::Matrix rows_of(const data::Dataset& dataset, std::size_t begin, std::size_t end) {
  nn::Matrix m(end - begin, dataset.feature_dim());
  for (std::size_t i = begin; i < end; ++i) m.set_row(i - begin, dataset[i].features);
  return m;
}

void test_names() {
  CHECK(serve::parse_fault_kind("corrupt") == serve::FaultKind::corrupt);
  CHECK(std::string(serve::fault_kind_name(serve::FaultKind::blackhole)) == "blackhole");
  bool threw = false;
  try {
    serve::parse_fault_kind("meteor");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  CHECK(std::string(serve::backend_health_name(serve::BackendHealth::suspect)) == "suspect");
  CHECK(std::string(serve::error_class_name(serve::ErrorClass::unavailable)) == "unavailable");
}

// Every fault kind at a hefty rate against one daemon: answered queries are
// bit-identical, failed ones are classified, and the daemon outlives it all.
void test_fault_sweep(const core::AdaptiveFingerprinter& attacker, const data::Dataset& test,
                      const Expected& expected) {
  serve::ServerConfig server_config;
  server_config.request_timeout_ms = 1000;
  serve::Server server(std::make_shared<serve::LocalHandler>(attacker.clone()), server_config);
  server.start();

  const std::size_t n_queries = std::min<std::size_t>(test.size(), 12);
  const std::vector<serve::FaultKind> kinds = {
      serve::FaultKind::drop, serve::FaultKind::delay, serve::FaultKind::truncate,
      serve::FaultKind::corrupt, serve::FaultKind::blackhole};
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    serve::FaultPlan plan;
    plan.kind = kinds[k];
    plan.rate = 0.2;
    plan.delay_ms = 20;
    plan.seed = 7 + k;
    serve::FaultProxy proxy("127.0.0.1", 0, {"127.0.0.1", server.port()}, plan);

    serve::ClientConfig client_config;
    client_config.timeout_ms = 300;
    serve::Client client("127.0.0.1", proxy.port(), client_config);
    std::size_t answered = 0, classified = 0;
    for (std::size_t i = 0; i < n_queries; ++i) {
      try {
        const serve::Rankings part = client.query(rows_of(test, i, i + 1));
        // Streams can only be cut or stalled by the other kinds, so an
        // answered query is bit-identical. Corruption is the exception: a
        // flipped byte inside a section payload (a distance, a vote) is
        // indistinguishable from data on a checksum-less wire, so there the
        // invariant is weaker — parse or classified error, never a crash.
        if (kinds[k] != serve::FaultKind::corrupt)
          CHECK(rankings_equal({expected[i]}, part));
        ++answered;
      } catch (const serve::ServeError&) {
        ++classified;  // the server answered ERRR with a class
      } catch (const io::IoError&) {
        ++classified;  // transport cut or client-side deadline
      }
    }
    CHECK(answered + classified == n_queries);
    proxy.stop();
    const serve::FaultProxyStats stats = proxy.stats();
    CHECK(stats.connections >= 1);
    CHECK(stats.chunks >= stats.faults);
  }

  // The daemon took the whole sweep without wedging: a direct client still
  // gets the full batch, bit-identically.
  serve::Client direct("127.0.0.1", server.port(), serve::ClientConfig{.connect_retry_ms = 2000});
  CHECK(rankings_equal(expected, direct.query(rows_of(test, 0, test.size()))));
  server.stop();
}

// Kill one of two shard backends. Strict coordinators fail fast with a
// classified retryable ERRR; --partial ones answer degraded from the live
// slice; both heal to full bit-identical coverage after a revival.
void test_failover(const core::AdaptiveFingerprinter& attacker, const data::Dataset& test,
                   const Expected& expected) {
  std::vector<std::unique_ptr<serve::Server>> backends;
  std::vector<serve::BackendAddress> addresses;
  for (std::size_t slice = 0; slice < 2; ++slice) {
    backends.push_back(std::make_unique<serve::Server>(
        std::make_shared<serve::LocalHandler>(attacker.clone(), slice, 2),
        serve::ServerConfig{}));
    backends.back()->start();
    addresses.push_back({"127.0.0.1", backends.back()->port()});
  }

  serve::CoordinatorConfig coordinator_config;
  coordinator_config.timeout_ms = 1000;
  coordinator_config.retry = {2, 1, 4, 0.5, 11};
  coordinator_config.reconnect = {8, 20, 50, 0.5, 12};
  auto strict = std::make_shared<serve::CoordinatorHandler>(addresses, coordinator_config);
  coordinator_config.allow_partial = true;
  auto partial = std::make_shared<serve::CoordinatorHandler>(addresses, coordinator_config);

  serve::Server front_strict(strict, {});
  serve::Server front_partial(partial, {});
  front_strict.start();
  front_partial.start();
  serve::Client client_strict("127.0.0.1", front_strict.port(),
                              serve::ClientConfig{.connect_retry_ms = 2000});
  serve::Client client_partial("127.0.0.1", front_partial.port(),
                               serve::ClientConfig{.connect_retry_ms = 2000});

  // Healthy: both answer full coverage, bit-identical, no DGRD marker.
  const nn::Matrix all = rows_of(test, 0, test.size());
  serve::ReplyMeta meta;
  CHECK(rankings_equal(expected, client_strict.query(all, &meta)));
  CHECK(!meta.degraded && meta.covered_references == meta.total_references);
  CHECK(rankings_equal(expected, client_partial.query(all, &meta)));
  CHECK(!meta.degraded);

  // Kill backend 1 (destruction closes its sockets, so peers see EOF).
  backends[1].reset();

  // Strict: classified retryable failure; two of them take the backend out
  // of rotation, after which queries fail fast without paying any timeout.
  for (int round = 0; round < 2; ++round) {
    bool unavailable = false;
    try {
      client_strict.query(all);
    } catch (const serve::ServeError& e) {
      unavailable = e.retryable() && e.klass() == serve::ErrorClass::unavailable;
    }
    CHECK(unavailable);
  }
  CHECK(strict->status()[1].health == serve::BackendHealth::down);
  {
    const auto t0 = std::chrono::steady_clock::now();
    bool unavailable = false;
    try {
      client_strict.query(all);
    } catch (const serve::ServeError& e) {
      unavailable = e.klass() == serve::ErrorClass::unavailable;
    }
    CHECK(unavailable);
    CHECK(std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(500));
  }

  // Partial: the live slice answers, flagged degraded with its coverage.
  for (int round = 0; round < 2; ++round) {
    const serve::Rankings part = client_partial.query(all, &meta);
    CHECK(part.size() == test.size());
    CHECK(meta.degraded);
    CHECK(meta.covered_references > 0);
    CHECK(meta.covered_references < meta.total_references);
    CHECK(meta.total_references == attacker.references().size());
  }
  CHECK(partial->status()[1].health == serve::BackendHealth::down);

  // Revive slice 1 on the same port; both reconnect loops should pick it
  // up and restore full, bit-identical coverage.
  serve::ServerConfig revived_config;
  revived_config.port = addresses[1].port;
  serve::Server revived(std::make_shared<serve::LocalHandler>(attacker.clone(), 1, 2),
                        revived_config);
  revived.start();
  const auto wait_until_up = [&](serve::CoordinatorHandler& handler) {
    for (int i = 0; i < 400; ++i) {
      if (handler.status()[1].health == serve::BackendHealth::up) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
  };
  CHECK(wait_until_up(*strict));
  CHECK(wait_until_up(*partial));
  CHECK(rankings_equal(expected, client_strict.query(all, &meta)));
  CHECK(!meta.degraded && meta.covered_references == meta.total_references);
  CHECK(rankings_equal(expected, client_partial.query(all, &meta)));
  CHECK(!meta.degraded);

  front_strict.stop();
  front_partial.stop();
}

// Slows the model call down so stop() demonstrably overlaps an in-flight
// request.
class DelayHandler final : public serve::Handler {
 public:
  DelayHandler(std::shared_ptr<serve::Handler> inner, int delay_ms)
      : inner_(std::move(inner)), delay_ms_(delay_ms) {}
  serve::ServerInfo info() const override { return inner_->info(); }
  serve::RankReply rank(const nn::Matrix& queries) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return inner_->rank(queries);
  }
  core::SliceScan scan(const nn::Matrix& queries) override { return inner_->scan(queries); }

 private:
  std::shared_ptr<serve::Handler> inner_;
  int delay_ms_;
};

void test_graceful_drain(const core::AdaptiveFingerprinter& attacker, const data::Dataset& test,
                         const Expected& expected) {
  serve::Server server(
      std::make_shared<DelayHandler>(std::make_shared<serve::LocalHandler>(attacker.clone()), 400),
      serve::ServerConfig{});
  server.start();

  serve::Client early("127.0.0.1", server.port(), serve::ClientConfig{.connect_retry_ms = 2000});
  serve::Client late("127.0.0.1", server.port(), serve::ClientConfig{.connect_retry_ms = 2000});
  late.hello();  // connection established before the listener closes

  std::atomic<bool> got_reply{false};
  std::thread in_flight([&] {
    try {
      const serve::Rankings part = early.query(rows_of(test, 0, 1));
      got_reply = rankings_equal({expected[0]}, part);
    } catch (const std::exception&) {
      got_reply = false;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));  // request is in the worker

  std::thread stopper([&] { server.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // stop() is draining the wave

  // A request arriving mid-drain: explicit retryable shutdown ERRR.
  bool shutdown_seen = false;
  try {
    late.query(rows_of(test, 1, 2));
  } catch (const serve::ServeError& e) {
    shutdown_seen = e.retryable() && e.klass() == serve::ErrorClass::shutdown;
  } catch (const io::IoError&) {
  }
  CHECK(shutdown_seen);

  in_flight.join();
  stopper.join();
  CHECK(got_reply);  // the in-flight request still got its full reply
}

}  // namespace

int main() {
  test_names();

  // Small world shared by every scenario below.
  netsim::WikiSiteConfig site_config;
  site_config.n_pages = 8;
  site_config.seed = 33;
  const netsim::Website site = netsim::make_wiki_site(site_config);
  const netsim::ServerFarm farm = netsim::ServerFarm::for_wiki();
  data::DatasetBuildOptions crawl;
  crawl.samples_per_class = 8;
  crawl.seed = 91;
  const data::Dataset dataset = data::build_dataset(site, farm, {}, crawl);
  const data::SampleSplit split = data::split_samples(dataset, 5, 5);
  const data::Dataset& test = split.second;

  core::EmbeddingConfig config;
  config.train_iterations = 100;
  core::AdaptiveFingerprinter attacker(config, /*knn_k=*/10, /*n_shards=*/3);
  attacker.train(split.first);
  const Expected expected = attacker.fingerprint_batch(test);

  test_fault_sweep(attacker, test, expected);
  test_failover(attacker, test, expected);
  test_graceful_drain(attacker, test, expected);
  return TEST_MAIN_RESULT();
}
