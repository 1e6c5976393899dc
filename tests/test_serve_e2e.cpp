// End-to-end serving equivalence: a wf serve daemon answering over real
// loopback sockets must reproduce in-process fingerprint_batch rankings
// bit-identically — for any request batch size, under concurrent clients
// (coalesced batches), and through the scatter/gather coordinator at
// several shard-slice counts. Also: slice-scan + merge equals rank_batch
// in-process with at most k candidates per query and slice, protocol
// errors come back as ERRR frames, STOP shuts the daemon down cleanly, and
// a coordinator refuses slice backends that split a loaded model into
// different shard counts.
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/adaptive.hpp"
#include "data/build.hpp"
#include "data/splits.hpp"
#include "netsim/browser.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/coordinator.hpp"
#include "serve/server.hpp"
#include "test_common.hpp"
#include "util/env.hpp"

using namespace wf;

namespace {

bool rankings_equal(const std::vector<std::vector<core::RankedLabel>>& a,
                    const std::vector<std::vector<core::RankedLabel>>& b) {
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

// Growth of a counter between two snapshots of the global registry.
std::uint64_t counter_delta(const obs::Snapshot& before, const obs::Snapshot& after,
                            const std::string& name) {
  const obs::SnapshotEntry* b = before.find(name);
  const obs::SnapshotEntry* a = after.find(name);
  return (a != nullptr ? a->count : 0) - (b != nullptr ? b->count : 0);
}

nn::Matrix rows_of(const data::Dataset& dataset, std::size_t begin, std::size_t end) {
  nn::Matrix m(end - begin, dataset.feature_dim());
  for (std::size_t i = begin; i < end; ++i) m.set_row(i - begin, dataset[i].features);
  return m;
}

}  // namespace

int main() {
  // Small world: 10 pages x 10 loads, 7 train / 3 test per class.
  netsim::WikiSiteConfig site_config;
  site_config.n_pages = 10;
  site_config.seed = 33;
  const netsim::Website site = netsim::make_wiki_site(site_config);
  const netsim::ServerFarm farm = netsim::ServerFarm::for_wiki();
  data::DatasetBuildOptions crawl;
  crawl.samples_per_class = 10;
  crawl.seed = 91;
  const data::Dataset dataset = data::build_dataset(site, farm, {}, crawl);
  const data::SampleSplit split = data::split_samples(dataset, 7, 5);
  const data::Dataset& test = split.second;

  core::EmbeddingConfig config;
  config.train_iterations = 120;
  core::AdaptiveFingerprinter attacker(config, /*knn_k=*/10, /*n_shards=*/3);
  attacker.train(split.first);
  const auto expected = attacker.fingerprint_batch(test);

  // --- scan_slice + merge_slice_scans == rank_batch, in process -----------
  for (const std::size_t slice_count : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    std::vector<core::SliceScan> slices;
    for (std::size_t slice = 0; slice < slice_count; ++slice) {
      slices.push_back(attacker.scan_slice(test, slice, slice_count));
      // One k-heap per query across the slice's shards: a SCAN frame ships
      // at most k candidates per query, whatever the shard count.
      for (const std::vector<core::Candidate>& candidates : slices.back().candidates)
        CHECK(candidates.size() <=
              static_cast<std::size_t>(attacker.classifier().k()));
    }
    const auto merged = core::merge_slice_scans(
        attacker.references().id_to_label(), attacker.classifier().k(),
        attacker.references().size(), slices);
    CHECK(rankings_equal(expected, merged));
  }

  // --- single daemon over loopback: any frame batch size ------------------
  {
    // The only server alive in this block, so serve.* deltas are its own.
    const obs::Snapshot before = obs::Registry::global().snapshot();
    serve::Server server(std::make_shared<serve::LocalHandler>(attacker.clone()), {});
    server.start();
    serve::Client client("127.0.0.1", server.port(), serve::ClientConfig{.connect_retry_ms = 2000});

    const serve::ServerInfo info = client.hello();
    CHECK(info.attacker == "adaptive");
    CHECK(info.n_references == attacker.references().size());
    CHECK(info.knn_k == attacker.classifier().k());
    CHECK(info.classes == attacker.target_classes());

    for (const std::size_t batch : {std::size_t{1}, std::size_t{5}, test.size()}) {
      std::vector<std::vector<core::RankedLabel>> served;
      for (std::size_t begin = 0; begin < test.size(); begin += batch) {
        const std::size_t end = std::min(test.size(), begin + batch);
        serve::Rankings part = client.query(rows_of(test, begin, end));
        for (auto& ranking : part) served.push_back(std::move(ranking));
      }
      CHECK(rankings_equal(expected, served));
    }

    // Concurrent clients: coalesced into shared model batches, every reply
    // still belongs to its own request, bit-identically.
    std::vector<std::thread> clients;
    // vector<char>, not vector<bool>: the threads write disjoint elements,
    // which bit-packing would turn into same-byte data races.
    std::vector<char> ok(test.size(), 0);
    for (std::size_t i = 0; i < test.size(); ++i) {
      clients.emplace_back([&, i] {
        serve::Client mine("127.0.0.1", server.port(),
                           serve::ClientConfig{.connect_retry_ms = 2000});
        const serve::Rankings part = mine.query_until_accepted(rows_of(test, i, i + 1));
        ok[i] = rankings_equal({expected[i]}, part);
      });
    }
    for (std::thread& t : clients) t.join();
    for (std::size_t i = 0; i < test.size(); ++i) CHECK(ok[i]);
    CHECK(counter_delta(before, obs::Registry::global().snapshot(), "serve.requests_total") >=
          test.size());

    // Live introspection over the wire: a STAT roundtrip returns the global
    // metrics snapshot. The registry is process-wide (shared by every server
    // in this binary), so assert lower bounds, not exact counts.
    {
      const obs::Snapshot live = client.stats();
      const obs::SnapshotEntry* requests = live.find("serve.requests_total");
      CHECK(requests != nullptr && requests->count >= test.size());
      const obs::SnapshotEntry* queries = live.find("serve.queries_total");
      CHECK(queries != nullptr && queries->count >= test.size() * 4);
      const obs::SnapshotEntry* qryb_ms = live.find("serve.handle_ms.qryb");
      CHECK(qryb_ms != nullptr && qryb_ms->kind == obs::InstrumentKind::histogram);
      CHECK(qryb_ms->count >= test.size());
      CHECK(live.find("serve.queue_depth") != nullptr);
      // The STAT handler itself is metered: a second snapshot has seen at
      // least the first roundtrip's handle time.
      const obs::Snapshot again = client.stats();
      const obs::SnapshotEntry* stat_ms = again.find("serve.handle_ms.stat");
      CHECK(stat_ms != nullptr && stat_ms->count >= 1);
    }

    // Unsupported/garbage frames answer ERRR instead of crashing.
    {
      serve::Socket raw = serve::tcp_connect("127.0.0.1", server.port(), 2000);
      serve::send_frame(raw, serve::encode_frame("XXXX"));
      const auto reply = serve::recv_frame(raw);
      CHECK(reply.has_value() && reply->kind == serve::kFrameError);
      const serve::ErrorReply error = serve::read_error(*reply->reader);
      CHECK(!error.retryable);
    }

    // STOP: BYEE reply, then wait() returns and the port closes.
    client.stop_server();
    server.wait();
    server.stop();
    const obs::Snapshot after = obs::Registry::global().snapshot();
    // 3 sweeps + concurrent singles; coalescing never splits requests.
    CHECK(counter_delta(before, after, "serve.queries_total") >= test.size() * 4);
    CHECK(counter_delta(before, after, "serve.batches_total") <=
          counter_delta(before, after, "serve.requests_total"));
  }

  // --- scatter/gather: sliced backends behind a coordinator ---------------
  for (const std::size_t slice_count : {std::size_t{2}, std::size_t{3}}) {
    std::vector<std::unique_ptr<serve::Server>> backends;
    std::vector<serve::BackendAddress> addresses;
    for (std::size_t slice = 0; slice < slice_count; ++slice) {
      backends.push_back(std::make_unique<serve::Server>(
          std::make_shared<serve::LocalHandler>(attacker.clone(), slice, slice_count),
          serve::ServerConfig{}));
      backends.back()->start();
      addresses.push_back({"127.0.0.1", backends.back()->port()});
    }
    serve::Server coordinator(
        std::make_shared<serve::CoordinatorHandler>(
            addresses, serve::CoordinatorConfig{.connect_retry_ms = 2000}),
        {});
    coordinator.start();

    serve::Client client("127.0.0.1", coordinator.port(),
                         serve::ClientConfig{.connect_retry_ms = 2000});
    const serve::ServerInfo info = client.hello();
    CHECK(info.slice_count == 1 && info.n_references == attacker.references().size());

    std::vector<std::vector<core::RankedLabel>> served;
    for (std::size_t begin = 0; begin < test.size(); begin += 4) {
      const std::size_t end = std::min(test.size(), begin + 4);
      serve::Rankings part = client.query(rows_of(test, begin, end));
      for (auto& ranking : part) served.push_back(std::move(ranking));
    }
    CHECK(rankings_equal(expected, served));

    // A coordinator refuses to be someone else's shard slice.
    bool threw = false;
    try {
      client.scan(rows_of(test, 0, 1));
    } catch (const serve::ServeError& e) {
      threw = !e.retryable();
    }
    CHECK(threw);

    coordinator.stop();
    for (auto& backend : backends) backend->stop();
  }

  // --- coordinator handshake validation -----------------------------------
  {
    // One backend claiming slice 0/2 cannot stand alone.
    serve::Server half(std::make_shared<serve::LocalHandler>(attacker.clone(), 0, 2), {});
    half.start();
    bool threw = false;
    try {
      serve::CoordinatorHandler bad({{"127.0.0.1", half.port()}},
                                    serve::CoordinatorConfig{.connect_retry_ms = 2000});
    } catch (const std::runtime_error&) {
      threw = true;
    }
    CHECK(threw);
    half.stop();
  }

  // --- slices of a loaded model need one shard count ----------------------
  {
    // A load deals the rows into the reader's shard count, and a slice is a
    // set of shards: backends loaded under the same count serve the exact
    // answer, backends under different counts are refused at startup.
    const std::string path =
        (std::filesystem::temp_directory_path() / "wf_test_serve_slices.wf").string();
    attacker.save(path);
    const std::size_t previous_shards = util::Env::shards();
    const auto load_under = [&](std::size_t n_shards) {
      util::Env::override_shards(n_shards);
      auto loaded = std::make_unique<core::AdaptiveFingerprinter>();
      loaded->load(path);
      CHECK(loaded->references().shard_count() == n_shards);
      return loaded;
    };
    const auto serve_pair = [&](std::size_t shards0, std::size_t shards1) {
      std::vector<std::unique_ptr<serve::Server>> pair;
      std::vector<serve::BackendAddress> addresses;
      const std::size_t shards[] = {shards0, shards1};
      for (std::size_t slice = 0; slice < 2; ++slice) {
        pair.push_back(std::make_unique<serve::Server>(
            std::make_shared<serve::LocalHandler>(load_under(shards[slice]), slice, 2),
            serve::ServerConfig{}));
        pair.back()->start();
        addresses.push_back({"127.0.0.1", pair.back()->port()});
      }
      return std::make_pair(std::move(pair), addresses);
    };
    {
      auto [pair, addresses] = serve_pair(5, 5);
      serve::Server coordinator(
          std::make_shared<serve::CoordinatorHandler>(
              addresses, serve::CoordinatorConfig{.connect_retry_ms = 2000}),
          {});
      coordinator.start();
      serve::Client client("127.0.0.1", coordinator.port(),
                           serve::ClientConfig{.connect_retry_ms = 2000});
      CHECK(client.hello().shard_count == 5);
      CHECK(rankings_equal(expected, client.query(rows_of(test, 0, test.size()))));
      coordinator.stop();
      for (auto& backend : pair) backend->stop();
    }
    {
      auto [pair, addresses] = serve_pair(2, 3);
      bool threw = false;
      try {
        serve::CoordinatorHandler bad(addresses,
                                      serve::CoordinatorConfig{.connect_retry_ms = 2000});
      } catch (const std::runtime_error&) {
        threw = true;
      }
      CHECK(threw);
      for (auto& backend : pair) backend->stop();
    }
    util::Env::override_shards(previous_shards);
    std::filesystem::remove(path);
  }

  return TEST_MAIN_RESULT();
}
