#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive.hpp"
#include "core/attacker.hpp"
#include "data/splits.hpp"
#include "netsim/browser.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace wf::eval {

// Shared knobs of every experiment binary. Class counts default to the
// paper's divided by 10 (see README); set WF_SMOKE=1 for a seconds-scale
// smoke configuration.
struct ScenarioConfig {
  trace::SequenceOptions seq3;  // per-IP 3-sequence encoding (paper default)
  trace::SequenceOptions seq2;  // directional 2-sequence encoding
  netsim::BrowserConfig browser;
  // Packet-level transport knobs used by the transport experiment (exp5);
  // `enabled`, loss and HTTP version are set per arm by the harness.
  netsim::TransportConfig transport;
  core::EmbeddingConfig embedding3;
  core::EmbeddingConfig embedding2;
  int knn_k = 40;
  // Reference-set shards for the k-NN/open-world query paths; 0 resolves
  // via WF_SHARDS, else one shard per pool thread. Results are identical
  // for any shard count, so this is purely a throughput knob.
  std::size_t knn_shards = 0;
  int samples_per_class = 25;
  int train_samples_per_class = 20;

  std::vector<int> exp1_class_counts = {50, 100, 300, 600};
  int exp1_shift_classes = 50;

  int transfer_train_classes = 50;
  std::vector<int> transfer_new_class_counts = {50, 100, 300};

  int crosssite_classes = 50;
  int distinguish_classes = 50;
  int padding_classes = 40;
  int cost_classes = 40;

  int transport_classes = 25;
  std::vector<double> transport_loss_rates = {0.01, 0.03, 0.08};

  // Defense-frontier sweep (`wf run defense`): anonymity-set sizes
  // and record-padding parameters traded against bandwidth overhead.
  std::vector<int> frontier_set_sizes = {2, 4, 8, 12};
  std::vector<std::uint32_t> frontier_pad_multiples = {1024, 4096, 16384};
  std::vector<std::uint32_t> frontier_random_ranges = {128, 512, 2048};

  std::uint64_t site_seed = 4242;
  std::uint64_t crawl_seed = 990001;
  std::uint64_t split_seed = 5;

  static ScenarioConfig standard();
  static ScenarioConfig smoke();
};

// Caches the simulated sites/farms shared by the experiment binaries.
class WikiScenario {
 public:
  WikiScenario();  // standard(), or smoke() when WF_SMOKE is set
  explicit WikiScenario(ScenarioConfig config);

  const ScenarioConfig& config() const { return config_; }

  // Wikipedia-like site with n_pages pages (cached); `tls13` selects the
  // protocol-shifted twin with identical content.
  const netsim::Website& wiki_site(int n_pages, bool tls13 = false);
  // Independent wiki-like site (disjoint content) for transfer experiments.
  const netsim::Website& fresh_site(int n_pages, std::uint64_t salt, bool tls13 = false);
  const netsim::Website& github_site(int n_pages);

  const netsim::ServerFarm& wiki_farm() const { return wiki_farm_; }
  const netsim::ServerFarm& github_farm() const { return github_farm_; }

 private:
  ScenarioConfig config_;
  netsim::ServerFarm wiki_farm_;
  netsim::ServerFarm github_farm_;
  std::map<std::string, netsim::Website> cache_;
};

// Samples whose label falls in [lo, hi).
data::Dataset label_range(const data::Dataset& dataset, int lo, int hi);

// Ensure and return the CSV output directory: WF_RESULTS_DIR / the CLI
// --out override via util::Env, else "results".
std::string results_dir();

// Builds the attacker for one experiment arm. `embedding` is the arm's
// embedding configuration (3-seq or 2-seq encoding); baselines that train
// no embedding ignore it. Every run_exp* harness takes one of these, so an
// attacker-ablation sweep is a one-line factory swap.
using AttackerFactory = std::function<std::unique_ptr<core::Attacker>(
    const core::EmbeddingConfig& embedding, const ScenarioConfig& cfg)>;

// The paper's adaptive embedding attacker (the harness default).
AttackerFactory default_attacker_factory();
// By registry name: "adaptive", "forest", "kfp-knn". Throws
// std::invalid_argument on an unknown name.
AttackerFactory attacker_factory(const std::string& name);
std::vector<std::string> attacker_names();

}  // namespace wf::eval
