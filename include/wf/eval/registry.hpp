#pragma once

#include <string_view>
#include <vector>

#include "eval/scenario.hpp"

namespace wf::eval {

// One experiment of the suite, as driven by `wf run <name>`. `run` prints
// the experiment's tables and mirrors them under results_dir(); experiments
// that support attacker sweeps pass the factory through, the rest (costs
// runs every attacker, ablation sweeps the adaptive attacker's internals)
// ignore it.
struct Experiment {
  const char* name;  // CLI name, e.g. "exp1"
  const char* description;
  bool accepts_attacker;  // honours `wf run --attacker`
  int (*run)(const AttackerFactory& make_attacker);
};

// All registered experiments, in suite order.
const std::vector<Experiment>& experiments();

// Lookup by CLI name; nullptr when unknown.
const Experiment* find_experiment(std::string_view name);

}  // namespace wf::eval
