#include "eval/exp_robust.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "data/build.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/fault.hpp"
#include "serve/server.hpp"
#include "util/env.hpp"

namespace wf::eval {

namespace {

bool same_rankings(const std::vector<core::RankedLabel>& a,
                   const std::vector<core::RankedLabel>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].label != b[i].label || a[i].votes != b[i].votes ||
        a[i].distance != b[i].distance)
      return false;
  return true;
}

}  // namespace

util::Table run_robust_serve(WikiScenario& scenario) {
  const ScenarioConfig& cfg = scenario.config();
  const bool smoke = util::Env::smoke();
  const int classes = cfg.exp1_class_counts.front();

  data::DatasetBuildOptions crawl;
  crawl.samples_per_class = cfg.samples_per_class;
  crawl.sequence = cfg.seq3;
  crawl.browser = cfg.browser;
  crawl.seed = cfg.crawl_seed + static_cast<std::uint64_t>(classes);
  const data::Dataset dataset =
      data::build_dataset(scenario.wiki_site(classes), scenario.wiki_farm(), {}, crawl);
  const data::SampleSplit split =
      data::split_samples(dataset, cfg.train_samples_per_class, cfg.split_seed);

  util::log_info() << "robust_serve: training the adaptive attacker on " << classes
                   << " classes (" << split.first.size() << " samples)";
  const std::unique_ptr<core::Attacker> attacker =
      attacker_factory("adaptive")(cfg.embedding3, cfg);
  attacker->train(split.first);

  // Ground truth for the integrity check: a fault may cost a request, but
  // every answered request must match the in-process rankings exactly.
  const data::Dataset& test = split.second;
  const std::vector<std::vector<core::RankedLabel>> truth = attacker->fingerprint_batch(test);

  // One daemon for the whole sweep; each configuration gets a fresh proxy in
  // front of it. Deadlines are short so faulted requests fail in
  // milliseconds, not the default 30 s.
  const int timeout_ms = smoke ? 1500 : 4000;
  serve::ServerConfig server_config;
  server_config.request_timeout_ms = timeout_ms;
  serve::Server server(std::make_shared<serve::LocalHandler>(attacker->clone()), server_config);
  server.start();

  const std::size_t batch = 8;
  const std::size_t min_requests = smoke ? 24 : 96;
  const std::vector<serve::FaultKind> kinds = {
      serve::FaultKind::none,     serve::FaultKind::drop,    serve::FaultKind::delay,
      serve::FaultKind::truncate, serve::FaultKind::corrupt, serve::FaultKind::blackhole};
  const std::vector<double> rates = smoke ? std::vector<double>{0.05}
                                          : std::vector<double>{0.02, 0.10};

  util::Table table({"Kind", "Rate", "Requests", "OK", "Timeout", "Backpressure", "Protocol",
                     "Other", "Availability", "p50 (ms)", "p99 (ms)", "Mismatches"});
  std::uint64_t proxy_seed = 1;
  for (const serve::FaultKind kind : kinds) {
    for (const double rate : kind == serve::FaultKind::none ? std::vector<double>{0.0} : rates) {
      serve::FaultPlan plan;
      plan.kind = kind;
      plan.rate = rate;
      plan.delay_ms = 50;
      plan.seed = proxy_seed++;
      serve::FaultProxy proxy(server_config.host, 0, {server_config.host, server.port()}, plan);

      serve::ClientConfig client_config;
      client_config.timeout_ms = timeout_ms;
      client_config.retry.max_attempts = 4;
      serve::Client client(server_config.host, proxy.port(), client_config);

      std::size_t requests = 0, ok = 0, timeouts = 0, backpressure = 0, protocol = 0,
                  other = 0, mismatches = 0;
      // Exact percentiles: the port to obs::Histogram left every CSV value
      // bit-identical.
      obs::Histogram latency;
      while (requests < min_requests) {
        for (std::size_t begin = 0; begin < test.size(); begin += batch) {
          const std::size_t end = std::min(test.size(), begin + batch);
          nn::Matrix frame(end - begin, test.feature_dim());
          for (std::size_t i = begin; i < end; ++i)
            frame.set_row(i - begin, test[i].features);
          ++requests;
          util::Stopwatch request;
          try {
            serve::ReplyMeta meta;
            const serve::Rankings part = client.query_until_accepted(frame, &meta);
            latency.record(request.millis());
            ++ok;
            if (!meta.degraded) {
              // The integrity invariant: answered means bit-identical.
              if (part.size() != end - begin) {
                ++mismatches;
              } else {
                for (std::size_t i = begin; i < end; ++i)
                  if (!same_rankings(part[i - begin], truth[i])) {
                    ++mismatches;
                    break;
                  }
              }
            }
          } catch (const serve::ServeError& e) {
            switch (e.klass()) {
              case serve::ErrorClass::timeout: ++timeouts; break;
              case serve::ErrorClass::backpressure: ++backpressure; break;
              case serve::ErrorClass::protocol: ++protocol; break;
              default: ++other; break;
            }
          } catch (const serve::TimeoutError&) {
            ++timeouts;
          } catch (const io::IoError&) {
            ++other;  // transport cut (truncate/drop mid-frame)
          }
        }
      }
      proxy.stop();

      table.add_row({serve::fault_kind_name(kind), util::Table::num(rate, 2),
                     std::to_string(requests), std::to_string(ok), std::to_string(timeouts),
                     std::to_string(backpressure), std::to_string(protocol),
                     std::to_string(other),
                     util::Table::pct(static_cast<double>(ok) / static_cast<double>(requests)),
                     util::Table::num(latency.quantile(0.50), 3),
                     util::Table::num(latency.quantile(0.99), 3),
                     std::to_string(mismatches)});
    }
  }
  server.stop();

  table.write_csv(results_dir() + "/robust_serve.csv");
  return table;
}

}  // namespace wf::eval
