// Integration: the full provision -> initialize -> fingerprint pipeline on
// a quickstart-sized world (8 pages x 8 loads, short training) must beat
// the random-guess baseline by a wide margin, deterministically.
#include "core/adaptive.hpp"
#include "data/splits.hpp"
#include "netsim/browser.hpp"

#include "test_common.hpp"

int main() {
  using namespace wf;

  netsim::WikiSiteConfig site_config;
  site_config.n_pages = 8;
  site_config.seed = 17;
  const netsim::Website site = netsim::make_wiki_site(site_config);
  const netsim::ServerFarm farm = netsim::ServerFarm::for_wiki();

  data::DatasetBuildOptions crawl;
  crawl.samples_per_class = 8;
  crawl.seed = 23;
  const data::Dataset dataset = data::build_dataset(site, farm, {}, crawl);
  CHECK(dataset.size() == 64);
  CHECK(dataset.n_classes() == 8);

  const data::SampleSplit split = data::split_samples(dataset, 6, 5);
  CHECK(split.first.size() == 48);
  CHECK(split.second.size() == 16);

  core::EmbeddingConfig config;
  config.train_iterations = 250;  // short schedule, CI-friendly
  core::AdaptiveFingerprinter attacker(config, /*knn_k=*/10);
  const core::TrainStats stats = attacker.provision(split.first);
  CHECK(stats.iterations == 250);
  CHECK(stats.pair_accuracy > 0.6);  // pairs are learnable well within budget
  attacker.initialize(split.first);
  CHECK(attacker.references().size() == split.first.size());

  const core::EvaluationResult eval = attacker.evaluate(split.second, 3);
  // Random top-1 on 8 classes is 12.5%; require a wide margin above it.
  CHECK(eval.curve.top(1) > 0.5);
  CHECK(eval.curve.top(3) >= eval.curve.top(1));

  // fingerprint() returns a full ranking, and it is the trace's row of the
  // batched ranking bit for bit, distances included.
  const std::vector<core::RankedLabel> ranking = attacker.fingerprint(split.second[0].features);
  CHECK(ranking.size() == 8);
  test::check_fingerprint_is_batch_row(attacker, split.second);

  // Determinism: a second attacker built identically agrees exactly.
  core::AdaptiveFingerprinter twin(config, 10);
  twin.provision(split.first);
  twin.initialize(split.first);
  const core::EvaluationResult twin_eval = twin.evaluate(split.second, 3);
  CHECK_NEAR(twin_eval.curve.top(1), eval.curve.top(1), 1e-12);

  // Adaptation hook: re-crawl page 3 and swap its references (same count as
  // the original 6 per class, so k-NN voting stays balanced). The refreshed
  // class must be recognized and overall accuracy must not degrade.
  const int page = 3;
  data::DatasetBuildOptions recrawl;
  recrawl.samples_per_class = 6;
  recrawl.seed = 777;
  const data::Dataset fresh = data::build_dataset(site, farm, {page}, recrawl);
  attacker.adapt_class(page, fresh);
  CHECK(attacker.references().size() == split.first.size());
  CHECK(attacker.probe_class_accuracy(page, fresh) > 0.5);
  CHECK(attacker.evaluate(split.second, 3).curve.top(1) >= eval.curve.top(1) - 0.25);

  return TEST_MAIN_RESULT();
}
