// The experiment registry: every experiment body lives here as a run
// function, so `wf run <name>` and `wf run --all` drive exactly the same
// code.
#include "eval/registry.hpp"

#include <iostream>

#include "core/embedding_config.hpp"
#include "eval/exp_ablation.hpp"
#include "eval/exp_costs.hpp"
#include "eval/exp_crosssite.hpp"
#include "eval/exp_distinguish.hpp"
#include "eval/exp_million.hpp"
#include "eval/exp_padding.hpp"
#include "eval/exp_robust.hpp"
#include "eval/exp_static.hpp"
#include "eval/exp_transfer.hpp"
#include "eval/exp_transport.hpp"

namespace wf::eval {

namespace {

// Reproduces Fig. 6 (Experiment 1): top-n accuracy of the adaptive
// fingerprinting adversary on known classes, for growing class counts,
// over TLS 1.2 — plus the TLS 1.3 version-shift series.
//
// Paper shape to check against (at 10x our default class counts):
//   500 classes:  top-1 ~58%, top-3 >90%, top-10 ~100%
//   1000 classes: top-1 ~50%, top-10 >90%
//   3000/6000:    top-1 ~35%, top-10/top-20 >90%
//   TLS 1.3 (500, version shift): top-3 drops ~95% -> ~70%
int run_exp1(const AttackerFactory& make_attacker) {
  WikiScenario scenario;
  std::cout << "== Table I: embedding network hyperparameters ==\n";
  core::hyperparameter_table(scenario.config().embedding3).print();

  std::cout << "\n== Fig. 6: static webpage classification (Experiment 1) ==\n"
            << "(class counts are paper/10 by default; see EXPERIMENTS.md)\n";
  const util::Table table = run_exp1_static(scenario, make_attacker);
  table.print();
  std::cout << "CSV written to " << results_dir() << "/exp1_static.csv\n";
  return 0;
}

// Reproduces Fig. 7 and Table II (Experiment 2): the Exp. 1 model
// classifies webpages it never saw during training (extreme
// distributional shift), and the number of guesses n needed for ~90%
// accuracy grows sublinearly with the number of classes.
//
// Paper shape: accuracy on unseen classes is almost identical to Exp. 1
// at equal class counts (top-1 ~58% @500, ~50% @1000, top-10 90/80/70%
// @3000/6000/13000), and n/#classes falls from 0.6% to 0.23%.
int run_exp2(const AttackerFactory& make_attacker) {
  WikiScenario scenario;
  std::cout << "== Fig. 7: classification of classes never seen in training ==\n";
  const Exp2Result result = run_exp2_transfer(scenario, make_attacker);
  result.accuracy.print();
  std::cout << "\n== Table II: guesses needed for ~90% accuracy (sublinear in classes) ==\n";
  result.table2.print();
  std::cout << "CSVs written to " << results_dir() << "/exp2_transfer.csv, "
            << results_dir() << "/exp2_table2.csv\n";
  return 0;
}

// Reproduces Fig. 8 (Experiment 3): a two-sequence model trained on the
// Wikipedia-like site (TLS 1.2) fingerprints the Github-like site
// (TLS 1.3, different theme, variable server count).
//
// Paper shape: the model performs considerably better on its home
// site/protocol but retains a fair fraction of its accuracy on Github —
// some leakage characteristics persist across site, encoding and
// protocol version; theme change hurts the most.
int run_exp3(const AttackerFactory& make_attacker) {
  WikiScenario scenario;
  std::cout << "== Fig. 8: cross-site / cross-version transfer (2-sequence model) ==\n";
  const util::Table table = run_exp3_crosssite(scenario, make_attacker);
  table.print();
  std::cout << "CSV written to " << results_dir() << "/exp3_crosssite.csv\n";
  return 0;
}

// Reproduces Figs. 9/10/11 (Experiment 4): per-class distinguishability.
// Cumulative distribution of the mean number of guesses needed per
// class — known classes, unknown classes, and FL-padded traces.
//
// Paper shape: known vs unknown distributions look alike; a large
// fraction of classes needs <2 guesses while a small tail (~3%) stays
// hard; FL padding pushes the whole distribution right (the <=10-guess
// fraction under padding is below the <=1-guess fraction without).
int run_exp4(const AttackerFactory& make_attacker) {
  WikiScenario scenario;
  const Exp4Result result = run_exp4_distinguish(scenario, make_attacker);
  std::cout << "== Fig. 9: mean guesses per class, known classes (CDF) ==\n";
  result.known.print();
  std::cout << "\n== Fig. 10: mean guesses per class, unknown classes (CDF) ==\n";
  result.unknown.print();
  std::cout << "\n== Fig. 11: mean guesses per class under FL padding (CDF) ==\n";
  result.padded.print();
  std::cout << "CSVs written to " << results_dir() << "/exp4_*.csv\n";
  return 0;
}

// Experiment 5 (beyond the paper): packet-level transport fidelity. An
// attacker provisioned on clean packet-level traffic is evaluated against
// captures at growing loss rates, for every TLS version x HTTP version,
// with a record-level baseline row per TLS block.
//
// Expected shape: the packet-level view (more, smaller, noisier wire
// units) costs the attacker some accuracy vs the idealized record stream;
// HTTP/2 multiplexing interleaves responses and costs more than HTTP/1.1;
// accuracy degrades further as loss shuffles retransmitted segments.
int run_exp5(const AttackerFactory& make_attacker) {
  WikiScenario scenario;
  std::cout << "== Exp. 5: accuracy under the packet-level transport "
               "(loss x HTTP version x TLS version) ==\n";
  const util::Table table = run_exp5_transport(scenario, make_attacker);
  table.print();
  std::cout << "CSV written to " << results_dir() << "/exp5_transport.csv\n";
  return 0;
}

// Reproduces Table III (§VIII): operational costs of fingerprinting
// systems. Prints the published literature table, then measured
// train/update/test wall-clock for every attacker of the registry.
//
// Paper shape: embedding-based systems update without retraining (cheap
// adaptation), CNN classifiers must retrain on every target-set change,
// forest/feature systems sit in between.
int run_costs(const AttackerFactory&) {
  WikiScenario scenario;
  const CostResult result = run_cost_experiment(scenario);
  std::cout << "== Table III (as published) ==\n";
  result.literature.print();
  std::cout << "\n== Table III (measured on this reproduction) ==\n";
  result.measured.print();
  std::cout << "CSVs written to " << results_dir() << "/table3_*.csv\n";
  return 0;
}

// Reproduces Figs. 12/13 (§VII): fixed-length padding against the
// adaptive adversary, on classes seen (Fig. 12) and not seen (Fig. 13)
// during training.
//
// Paper shape: FL padding significantly decreases accuracy in both
// settings but does not erase it completely; the residual comes from
// interleaving/order features the total-length padding cannot hide.
int run_padding(const AttackerFactory& make_attacker) {
  WikiScenario scenario;
  std::cout << "== Figs. 12/13: fixed-length padding vs the adaptive adversary ==\n";
  const util::Table table = run_padding_experiment(scenario, make_attacker);
  table.print();
  std::cout << "CSV written to " << results_dir() << "/padding_fl.csv\n";
  return 0;
}

// §VII discussion ablation (beyond the paper's figures): TLS 1.3 record
// padding policies and trace-level defenses — attacker accuracy vs
// bandwidth overhead — plus the cost/protection frontier sweep over
// anonymity-set sizes and padding parameters.
//
// Expected shape per the paper's discussion: random padding is cheap but
// weak (Pironti et al.), full FL padding is strong but expensive, and
// per-website anonymity sets buy protection proportional to set size at
// much lower cost than site-wide FL.
int run_defense(const AttackerFactory& make_attacker) {
  WikiScenario scenario;
  std::cout << "== Defense ablation: record policies and trace-level padding ==\n";
  const util::Table table = run_defense_ablation(scenario, make_attacker);
  table.print();
  std::cout << "CSV written to " << results_dir() << "/defense_ablation.csv\n";

  std::cout << "\n== Cost/protection frontier: set sizes x padding parameters ==\n";
  const util::Table frontier = run_defense_frontier(scenario, make_attacker);
  frontier.print();
  std::cout << "CSV written to " << results_dir() << "/defense_frontier.csv\n";
  return 0;
}

// Chaos benchmark (beyond the paper): the serving path driven through a
// fault-injecting proxy, per fault kind x fault rate — availability within
// a bounded retry budget, the classified error mix, p50/p99 latency, and an
// integrity count (answered requests that differ from the in-process
// rankings, the Mismatches column).
//
// Expected shape: `none` and `delay` stay at 100% availability (delay only
// moves the percentiles); drop/truncate/corrupt/blackhole cost availability
// roughly with rate, blackhole surfacing as timeouts and corrupt mostly as
// protocol errors. Mismatches reads 0 for every kind but `corrupt`: frames
// carry no checksum, so a byte flipped inside a payload (a distance, a
// vote) can parse as a valid, wrong answer. CI gates the other rows at 0.
int run_robust(const AttackerFactory&) {
  WikiScenario scenario;
  std::cout << "== robust_serve: availability/error classes under injected faults ==\n";
  const util::Table table = run_robust_serve(scenario);
  table.print();
  std::cout << "CSV written to " << results_dir() << "/robust_serve.csv\n";
  return 0;
}

// Design-choice ablations over the adaptive attacker's internals plus the
// §VI-C open world (see exp_ablation.cpp).
int run_ablation(const AttackerFactory&) {
  const AblationResult result = run_ablation_experiment();
  std::cout << "== Ablations over design choices ==\n";
  result.design.print();
  std::cout << "\n== Open-world detection (monitored-set membership, §VI-C) ==\n";
  result.openworld.print();
  std::cout << "\n== Open-world precision/recall sweep ==\n";
  result.pr_sweep.print();
  std::cout << "CSV written to " << results_dir() << "/ablation.csv\n";
  return 0;
}

// The million-reference regime (wf::index, beyond the paper's corpus sizes):
// IVF-pruned scan vs the exact sharded scan on a synthetic clustered
// corpus — QPS, speedup and recall@10 per cluster count x probe count x
// SIMD mode. The Clusters=0/Probes=0 rows are the exact baselines.
int run_million(const AttackerFactory&) {
  std::cout << "== perf_million: IVF-pruned scan vs exact, clusters x probes x SIMD ==\n";
  const util::Table table = run_million_experiment();
  table.print();
  std::cout << "CSV written to " << results_dir() << "/perf_million.csv\n";
  return 0;
}

}  // namespace

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> registry = {
      {"exp1", "Fig. 6 - closed-world top-n vs class count, + TLS 1.3 version shift", true,
       run_exp1},
      {"exp2", "Fig. 7 / Table II - classification of classes never seen in training", true,
       run_exp2},
      {"exp3", "Fig. 8 - wiki->github cross-site/cross-version transfer (2-seq model)", true,
       run_exp3},
      {"exp4", "Figs. 9-11 - per-class mean-guesses CDFs (known/unknown/FL-padded)", true,
       run_exp4},
      {"exp5", "packet-level transport: loss rate x HTTP version x TLS version", true, run_exp5},
      {"costs", "Table III - operational costs, literature + every registered attacker", false,
       run_costs},
      {"padding", "Figs. 12/13 - FL padding vs the adaptive adversary, seen/unseen classes",
       true, run_padding},
      {"defense", "record policies + trace defenses vs overhead, + cost/protection frontier",
       true, run_defense},
      {"ablation", "design-choice ablations + open-world detection incl. PR sweep", false,
       run_ablation},
      {"robust_serve", "serving availability + error classes + p99 under injected faults",
       false, run_robust},
      {"perf_million", "IVF index recall/speedup sweep: clusters x probes x SIMD vs exact scan",
       false, run_million},
  };
  return registry;
}

const Experiment* find_experiment(std::string_view name) {
  for (const Experiment& experiment : experiments())
    if (name == experiment.name) return &experiment;
  return nullptr;
}

}  // namespace wf::eval
