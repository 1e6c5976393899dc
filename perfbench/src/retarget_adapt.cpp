// retarget_adapt: the paper's operational loop, with no sockets and no index.
// Provision on the standard 50-class world, retarget the trained model to a
// fresh site it never saw (crawl, encode, initialize), evaluate, drift the
// site, and run one probe-and-swap pass as in examples/adaptive_monitoring.

#include <algorithm>
#include <memory>

#include "common.hpp"
#include "core/adaptive.hpp"
#include "data/build.hpp"
#include "eval/scenario.hpp"
#include "netsim/website.hpp"
#include "phases.hpp"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 3;
constexpr int kRefsPerClass = 20;   // reference loads per retargeted class
constexpr int kTestPerClass = 3;    // held-out loads per class the eval times
constexpr int kAccuracyPerClass = 8;  // loads per class top-1 is judged on
constexpr std::uint64_t kFreshSiteSalt = 17;
constexpr int kProbePerClass = 2;   // live loads per class the probe judges
constexpr double kDrift = 0.5;      // share of the site's content that changes
constexpr double kProbeThreshold = 0.5;
constexpr int kEvalRepeats = 3;
constexpr int kRetargetRepeats = 5;

wf::data::Dataset crawl(const wf::netsim::Website& site, const wf::netsim::ServerFarm& farm,
                        const std::vector<int>& pages, int samples_per_class, std::uint64_t seed,
                        const wf::eval::ScenarioConfig& cfg, std::size_t* page_loads) {
  wf::data::DatasetBuildOptions options;
  options.samples_per_class = samples_per_class;
  options.seed = seed;
  options.sequence = cfg.seq3;
  options.browser = cfg.browser;
  wf::data::CaptureCorpus captures;
  {
    ScopedSpan span("netsim.collect_captures");
    captures = wf::data::collect_captures(site, farm, pages, options);
  }
  if (page_loads != nullptr) *page_loads += captures.size();
  ScopedSpan span("trace.encode_corpus");
  return wf::data::encode_corpus(captures, cfg.seq3);
}

double top1(const std::vector<std::vector<wf::core::RankedLabel>>& rankings,
            const wf::data::Dataset& truth) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < rankings.size(); ++i)
    if (!rankings[i].empty() && rankings[i].front().label == truth[i].label) ++hits;
  return rankings.empty() ? 0.0 : static_cast<double>(hits) / static_cast<double>(rankings.size());
}

struct Cycle {
  std::vector<double> retarget_s;  // per repeat
  std::size_t refs = 0;
  std::vector<double> eval_s;      // per repeat
  std::size_t eval_queries = 0;
  double adapt_s = 0.0;
  std::size_t probed = 0;
  std::size_t refreshed = 0;
  std::size_t page_loads = 0;
  double top1 = 0.0;
};

}  // namespace

void run_retarget_adapt(const PhaseOptions& options, Report& report) {
  const wf::eval::ScenarioConfig cfg = wf::eval::ScenarioConfig::standard();
  wf::eval::WikiScenario scenario(cfg);
  const wf::netsim::ServerFarm& farm = scenario.wiki_farm();
  const int base_classes = cfg.exp1_class_counts.front();

  // Setup: provision on the standard 50-class world (crawl, encode, train).
  SpanLog::instance().set_enabled(options.trace);
  std::vector<double> setup_s;
  std::unique_ptr<wf::core::AdaptiveFingerprinter> attacker;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    attacker = std::make_unique<wf::core::AdaptiveFingerprinter>(cfg.embedding3, cfg.knn_k,
                                                                 cfg.knn_shards);
    const wf::data::Dataset world =
        crawl(scenario.wiki_site(base_classes), farm, {}, cfg.samples_per_class,
              cfg.crawl_seed + static_cast<std::uint64_t>(base_classes), cfg, nullptr);
    const wf::data::SampleSplit split =
        wf::data::split_samples(world, cfg.train_samples_per_class, cfg.split_seed);
    ScopedSpan span("core.provision");
    attacker->provision(split.first);
    setup_s.push_back(seconds_since(start));
  }
  report.add("setup_s", median(setup_s), "s");

  // A fresh site the model never saw, and its drifted twin (the same pages
  // after an update). The site is fixed; the seed draws every crawl of it
  // and the drift, so accuracy varies little from seed to seed.
  const int classes = options.scale.retarget_classes;
  const wf::netsim::Website& site = scenario.fresh_site(classes, kFreshSiteSalt);
  wf::netsim::Website drifted = site;
  wf::netsim::apply_content_drift(drifted, kDrift, options.seed * 31 + 7);
  const std::uint64_t crawl_seed = options.seed * 1000003ULL;

  const auto run_cycle = [&](bool judge_accuracy) {
    Cycle c;
    // Retarget: crawl + encode + initialize on the fresh site. Each repeat
    // replaces the whole reference set, so repeats do identical work.
    wf::data::SampleSplit split;
    Clock::time_point start;
    for (int i = 0; i < kRetargetRepeats; ++i) {
      start = Clock::now();
      ScopedSpan span("retarget");
      split = wf::data::split_samples(
          crawl(site, farm, {}, kRefsPerClass + kTestPerClass, crawl_seed + 1, cfg, &c.page_loads),
          kRefsPerClass, crawl_seed + 2);
      ScopedSpan init("core.initialize");
      attacker->initialize(split.first);
      c.retarget_s.push_back(seconds_since(start));
    }
    c.refs = split.first.size();

    // Evaluate the held-out split.
    for (int i = 0; i < kEvalRepeats; ++i) {
      start = Clock::now();
      ScopedSpan span("core.fingerprint_batch");
      (void)attacker->fingerprint_batch(split.second);
      c.eval_s.push_back(seconds_since(start));
    }
    c.eval_queries = split.second.size();

    // One probe-and-swap pass against the drifted site.
    start = Clock::now();
    {
      ScopedSpan span("adapt_pass");
      const wf::data::Dataset live =
          crawl(drifted, farm, {}, kProbePerClass, crawl_seed + 3, cfg, &c.page_loads);
      std::vector<int> stale;
      for (const int label : live.classes()) {
        ScopedSpan probe("core.probe_class_accuracy");
        ++c.probed;
        if (attacker->probe_class_accuracy(label, live) < kProbeThreshold) stale.push_back(label);
      }
      const wf::data::Dataset fresh =
          crawl(drifted, farm, stale, kRefsPerClass, crawl_seed + 4, cfg, &c.page_loads);
      for (const int label : stale) {
        ScopedSpan swap("core.adapt_class");
        attacker->adapt_class(label, fresh);
      }
      c.refreshed = stale.size();
    }
    c.adapt_s = seconds_since(start);

    // Accuracy after adaptation on fresh traffic from the drifted site
    // (every cycle does identical work, so one cycle judges it).
    if (!judge_accuracy) return c;
    const bool traced = SpanLog::instance().enabled();
    SpanLog::instance().set_enabled(false);
    const wf::data::Dataset after =
        crawl(drifted, farm, {}, kAccuracyPerClass, crawl_seed + 5, cfg, nullptr);
    c.top1 = top1(attacker->fingerprint_batch(after), after);
    SpanLog::instance().set_enabled(traced);
    return c;
  };

  // Warm-up: bring the pool threads (and a virtual machine's idle vCPUs)
  // up before anything is timed.
  {
    const wf::data::Dataset warm = crawl(site, farm, {}, kTestPerClass, crawl_seed, cfg, nullptr);
    attacker->initialize(warm);
    for (int i = 0; i < kEvalRepeats; ++i) (void)attacker->fingerprint_batch(warm);
  }

  std::vector<Cycle> cycles;
  std::size_t cycle_mark = 0;  // first span of the traced cycle
  std::size_t cycle_end = 0;   // first span after it
  if (!options.trace) {
    SpanLog::instance().set_enabled(false);
    const Clock::time_point start = Clock::now();
    do {
      cycles.push_back(run_cycle(cycles.empty()));
    } while (seconds_since(start) + seconds_since(start) / static_cast<double>(cycles.size()) <=
             options.seconds);
  } else {
    // The traced run: cycles untraced, traced, untraced on identical work.
    SpanLog::instance().set_enabled(false);
    cycles.push_back(run_cycle(true));
    SpanLog::instance().set_enabled(true);
    cycle_mark = SpanLog::instance().size();
    cycles.push_back(run_cycle(false));
    cycle_end = SpanLog::instance().size();
    SpanLog::instance().set_enabled(false);
    cycles.push_back(run_cycle(false));
    SpanLog::instance().set_enabled(true);
  }

  std::vector<double> retarget_rate, adapt_s, eval_rate;
  for (const Cycle& c : cycles) {
    for (const double s : c.retarget_s) retarget_rate.push_back(static_cast<double>(c.refs) / s);
    for (const double s : c.eval_s) eval_rate.push_back(static_cast<double>(c.eval_queries) / s);
    adapt_s.push_back(c.adapt_s);
    report.attempt(c.refs + c.eval_queries + c.probed + c.refreshed);
    report.check(c.refreshed == cycles.front().refreshed, "refresh count differs between cycles");
  }
  const Cycle& last = cycles.back();
  const double top1_accuracy = cycles.front().top1;
  report.check(top1_accuracy > 10.0 / classes, "top-1 accuracy after adaptation is near random");
  std::fprintf(stderr,
               "retarget_adapt: classes=%d cycles=%zu refs=%zu probed=%zu refreshed=%zu "
               "top1=%.4f retarget=%.3fs adapt=%.3fs eval=%.4fs\n",
               classes, cycles.size(), last.refs, last.probed, last.refreshed, top1_accuracy,
               quick_time(last.retarget_s), last.adapt_s, quick_time(last.eval_s));

  if (!options.trace) {
    report.add("retarget_refs_per_s", quick_rate(retarget_rate), "1/s");
    report.add("adapt_pass_s", quick_time(adapt_s), "s");
    report.add("eval_queries_per_s", quick_rate(eval_rate), "1/s");
    report.add("top1_accuracy", top1_accuracy, "ratio");
    return;
  }

  const auto cycle_s = [](const Cycle& c) {
    return quick_time(c.retarget_s) + quick_time(c.eval_s) + c.adapt_s;
  };
  const double plain_s = (cycle_s(cycles[0]) + cycle_s(cycles[2])) / 2;
  report.add("obs.trace_overhead_pct.retarget", 100.0 * (cycle_s(cycles[1]) / plain_s - 1.0), "%");
  const SpanLog& log = SpanLog::instance();
  const auto cycle_total_ms = [&](const char* name) {
    return log.total_ms(name, cycle_mark) - log.total_ms(name, cycle_end);
  };
  report.add("netsim.crawl_ms", cycle_total_ms("netsim.collect_captures"), "ms");
  report.add("netsim.page_loads", static_cast<double>(cycles[1].page_loads), "count");
  report.add("trace.encode_ms", cycle_total_ms("trace.encode_corpus"), "ms");
  report.add("core.provision_ms.retarget", median(log.durations("core.provision")), "ms");
  report.add("core.train_steps.retarget", cfg.embedding3.train_iterations, "steps");
  report.add("core.initialize_ms", median(log.durations("core.initialize", cycle_mark)), "ms");
  report.add("core.probe_ms", cycle_total_ms("core.probe_class_accuracy"), "ms");
  report.add("core.swap_ms", cycle_total_ms("core.adapt_class"), "ms");
  report.add("core.refresh_ratio",
             static_cast<double>(cycles[1].refreshed) / static_cast<double>(cycles[1].probed),
             "ratio");

  // Layer probes outside the overhead window: the embed and rank halves of
  // the retarget/eval path, called directly.
  const wf::data::Dataset refs =
      crawl(site, farm, {}, kRefsPerClass, crawl_seed + 1, cfg, nullptr);
  wf::nn::Matrix embedded;
  {
    ScopedSpan span("core.embed_dataset");
    embedded = attacker->model().embed_dataset(refs);
  }
  report.add("core.embed_ms", log.total_ms("core.embed_dataset"), "ms");
  report.add("core.embed_rows", static_cast<double>(embedded.rows()), "rows");
  const wf::nn::Matrix queries = attacker->model().embed_dataset(
      crawl(site, farm, {}, kTestPerClass, crawl_seed + 6, cfg, nullptr));
  for (int i = 0; i < kEvalRepeats; ++i) {
    ScopedSpan span("core.rank_batch");
    (void)attacker->classifier().rank_batch(attacker->store(), queries);
  }
  report.add("core.rank_batch_ms.retarget", median(log.durations("core.rank_batch")), "ms");
}

}  // namespace perfbench
