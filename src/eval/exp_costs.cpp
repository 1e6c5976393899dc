#include "eval/exp_costs.hpp"

#include "baselines/features.hpp"

namespace wf::eval {

namespace {

// One attacker's measured row: train (provision + target set), adapt one
// class, and per-trace test cost — all through the Attacker interface, so
// every system is timed on exactly the same operations.
void add_measured_row(util::Table& table, const std::string& label, core::Attacker& attacker,
                      const data::SampleSplit& split) {
  util::Stopwatch watch;
  attacker.train(split.first);
  const double provision_s = watch.seconds();

  const int probe_class = 0;
  const data::Dataset fresh =
      split.second.filter([probe_class](int l) { return l == probe_class; });
  watch.reset();
  attacker.adapt(probe_class, fresh);
  const double adapt_ms = watch.millis();

  // Per-trace latency: one trace at a time, each a one-row fingerprint_batch.
  watch.reset();
  std::size_t tested = 0;
  for (std::size_t i = 0; i < split.second.size(); ++i, ++tested)
    attacker.fingerprint(split.second[i].features);
  const double test_ms = tested > 0 ? watch.millis() / static_cast<double>(tested) : 0.0;
  table.add_row({label, util::Table::num(provision_s, 2), util::Table::num(adapt_ms, 2),
                 util::Table::num(test_ms, 3)});
}

}  // namespace

CostResult run_cost_experiment(WikiScenario& scenario) {
  const ScenarioConfig& cfg = scenario.config();
  CostResult result{
      util::Table({"System", "Provisioning", "Target-set update", "Per-trace test"}),
      util::Table({"System", "Provisioning (s)", "Update one class (ms)", "Per-trace test (ms)"}),
  };

  // Table III as published: qualitative cost structure of the literature
  // systems (GPU-hours for CNNs, minutes for forests, one-off embedding
  // training plus free adaptation for this work).
  result.literature.add_row(
      {"DF / Var-CNN (CNN)", "hours (GPU)", "full retrain (hours)", "milliseconds"});
  result.literature.add_row(
      {"k-FP (forest)", "minutes", "full refit (minutes)", "milliseconds"});
  result.literature.add_row(
      {"Triplet FP (embedding)", "hours, once", "embed new refs (seconds)", "milliseconds"});
  result.literature.add_row(
      {"This work (adaptive embedding)", "hours, once", "reference swap (seconds)",
       "milliseconds"});

  // Measured on the simulated workload: every attacker of the registry,
  // timed on the same train/adapt/test operations through the shared
  // Attacker interface.
  const int classes = cfg.cost_classes;
  util::log_info() << "costs: measuring on " << classes << " classes";
  data::DatasetBuildOptions crawl;
  crawl.samples_per_class = cfg.samples_per_class;
  crawl.sequence = cfg.seq3;
  crawl.browser = cfg.browser;
  crawl.seed = cfg.crawl_seed;
  const data::CaptureCorpus corpus = data::collect_captures(
      scenario.wiki_site(classes), scenario.wiki_farm(), {}, crawl);
  const data::Dataset dataset = data::encode_corpus(corpus, cfg.seq3);
  const data::SampleSplit split =
      data::split_samples(dataset, cfg.train_samples_per_class, cfg.split_seed);

  // This work: provision once, adapt by swap, test per trace — plus the
  // batched pipeline a bulk-monitoring deployment runs.
  {
    const std::unique_ptr<core::Attacker> attacker =
        attacker_factory("adaptive")(cfg.embedding3, cfg);
    add_measured_row(result.measured, "This work (adaptive embedding)", *attacker, split);
    util::Stopwatch watch;
    const std::size_t batched = attacker->fingerprint_batch(split.second).size();
    const double batched_ms =
        batched > 0 ? watch.millis() / static_cast<double>(batched) : 0.0;
    result.measured.add_row({"This work (batched pipeline)", "-", "-",
                             util::Table::num(batched_ms, 3)});
  }

  // Feature baselines over the k-FP summary statistics: the forest refits
  // on every target-set change; the feature k-NN swaps references but has
  // no learned metric.
  data::Dataset kfp_dataset(baselines::kfp_feature_dim());
  for (std::size_t i = 0; i < corpus.captures.size(); ++i)
    kfp_dataset.add({baselines::extract_kfp_features(corpus.captures[i]), corpus.labels[i]});
  const data::SampleSplit kfp_split =
      data::split_samples(kfp_dataset, cfg.train_samples_per_class, cfg.split_seed);
  {
    const std::unique_ptr<core::Attacker> forest =
        attacker_factory("forest")(cfg.embedding3, cfg);
    add_measured_row(result.measured, "k-FP (forest, full refit)", *forest, kfp_split);
  }
  {
    const std::unique_ptr<core::Attacker> kfp_knn =
        attacker_factory("kfp-knn")(cfg.embedding3, cfg);
    add_measured_row(result.measured, "k-FP features (k-NN, reference swap)", *kfp_knn,
                     kfp_split);
  }

  result.literature.write_csv(results_dir() + "/table3_literature.csv");
  result.measured.write_csv(results_dir() + "/table3_measured.csv");
  return result;
}

}  // namespace wf::eval
