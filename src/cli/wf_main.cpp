// The single driver binary of the suite:
//
//   wf list                                  enumerate experiments/attackers
//   wf run <exp...|--all> [flags]            run registered experiments
//   wf train --model FILE [flags]            train an attacker, save it
//   wf eval  --model FILE [flags]            reload and evaluate a saved attacker
//   wf serve --model FILE [flags]            resident daemon answering query frames
//   wf query --port P [flags]                evaluate against a running daemon
//   wf stats --port P [--watch]              print a daemon's metrics snapshot
//   wf proxy --port P --upstream H:P [flags] fault-injecting TCP proxy (chaos tests)
//
// Shared flags: --smoke, --out DIR, --threads N, --shards S,
// --attacker NAME.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/adaptive.hpp"
#include "eval/registry.hpp"
#include "index/store.hpp"
#include "io/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/coordinator.hpp"
#include "serve/fault.hpp"
#include "serve/server.hpp"
#include "util/env.hpp"

namespace {

using namespace wf;

struct CliOptions {
  std::vector<std::string> positional;
  std::string attacker = "adaptive";
  std::string model;
  int classes = 0;  // 0: first exp1 class count of the active scenario

  // wf::index flags (wf index build/info/rebuild, wf serve --index).
  std::string index;
  std::size_t clusters = 0;  // 0 = auto (~sqrt(n))
  std::size_t probes = 0;    // 0 = all clusters (exact)
  bool seed_given = false;
  bool all = false;
  bool attacker_given = false;
  bool out_given = false;

  // serve/query flags.
  std::string host = "127.0.0.1";
  int port = 0;  // serve: 0 = ephemeral; query: must be given
  std::size_t slice_index = 0;
  std::size_t slice_count = 1;
  std::size_t queue_capacity = 64;
  std::size_t max_batch = 1024;
  std::size_t query_batch = 32;  // queries per request frame from wf query
  bool coordinator = false;
  bool stop = false;
  std::vector<serve::BackendAddress> backends;

  // Fault-tolerance knobs.
  int timeout_ms = -1;       // -1: WF_SERVE_TIMEOUT_MS, else 30000; 0 disables
  int idle_timeout_ms = 0;   // server-side idle hangup; 0 keeps connections
  bool partial = false;      // coordinator: degraded answers from live slices
  int retries = 8;           // bounded-retry attempts for client/coordinator
  std::string fault_kind = "none";
  double fault_rate = 0.0;
  int fault_delay_ms = 100;

  // Observability knobs.
  bool watch = false;      // wf stats: poll instead of one-shot
  int interval_ms = 2000;  // wf stats --watch poll period
  long seed = 1;
  serve::BackendAddress upstream;
  bool upstream_given = false;
};

// --timeout-ms wins, then WF_SERVE_TIMEOUT_MS, then the built-in default;
// an explicit 0 disables the deadline end to end.
int effective_timeout_ms(const CliOptions& options) {
  if (options.timeout_ms >= 0) return options.timeout_ms;
  const std::size_t env = util::Env::serve_timeout_ms();
  return env > 0 ? static_cast<int>(env) : 30000;
}

int usage(int code) {
  std::cout <<
      "wf - adaptive webpage fingerprinting driver\n"
      "\n"
      "usage:\n"
      "  wf list                     list experiments and attackers\n"
      "  wf run <exp...> [flags]     run experiments (or --all for the whole suite)\n"
      "  wf train [flags]            crawl, train an attacker, save it to --model\n"
      "  wf eval [flags]             reload --model and evaluate it on the same crawl\n"
      "  wf index build|info|rebuild [flags]  build/inspect/compact an on-disk IVF index\n"
      "  wf serve [flags]            daemon: load --model, answer query frames on TCP\n"
      "  wf query [flags]            evaluate the crawl against a running daemon\n"
      "  wf stats [flags]            fetch and print a running daemon's metrics\n"
      "  wf proxy [flags]            fault-injecting TCP proxy for chaos testing\n"
      "  wf help                     this text\n"
      "\n"
      "index flags (wf index build --model FILE --index OUT):\n"
      "  --index FILE       the on-disk IVFX index file (all index verbs; wf serve)\n"
      "  --clusters C       IVF cluster count for build (0 = auto, ~sqrt(n))\n"
      "  --probes P         clusters probed per query (0 = all: exact rankings)\n"
      "  --seed S           k-means seed for build (default 9041)\n"
      "\n"
      "serve/query flags:\n"
      "  --host H           listen/connect address (default 127.0.0.1)\n"
      "  --port P           TCP port (serve default 0 = ephemeral, printed on start)\n"
      "  --slice I/N        serve shard slice I of N as a scatter/gather backend\n"
      "  --coordinator      serve by fanning out to --backend daemons and merging\n"
      "  --backend H:P      one backend of a coordinator (repeat per shard slice)\n"
      "  --queue N          pending-request ring capacity before backpressure (64)\n"
      "  --max-batch N      max queries coalesced into one model call (1024)\n"
      "  --batch N          queries per request frame sent by wf query (32)\n"
      "  --stop             wf query: ask the daemon to shut down and exit\n"
      "  --timeout-ms T     per-request deadline, server and client side\n"
      "                     (default WF_SERVE_TIMEOUT_MS or 30000; 0 disables)\n"
      "  --idle-timeout-ms T  serve: hang up connections idle for T ms (0: keep)\n"
      "  --retries N        bounded-retry attempts for retryable failures (8)\n"
      "  --partial          coordinator: answer from live slices when backends\n"
      "                     are down, flagging the reply degraded (default: fail)\n"
      "\n"
      "stats flags (wf stats --port P):\n"
      "  --watch            keep polling every --interval-ms until interrupted\n"
      "  --interval-ms T    poll period for --watch in ms (default 2000)\n"
      "  --out DIR          also write wf_stats.csv to DIR\n"
      "\n"
      "proxy flags (wf proxy --port P --upstream H:P):\n"
      "  --upstream H:P     where to forward accepted connections\n"
      "  --fault-kind K     none|drop|delay|truncate|corrupt|blackhole (none)\n"
      "  --fault-rate R     per-chunk fault probability in [0, 1] (0)\n"
      "  --fault-delay-ms T delay per faulted chunk for --fault-kind delay (100)\n"
      "  --seed S           fault schedule seed (1)\n"
      "\n"
      "flags:\n"
      "  --smoke            seconds-scale configuration (same as WF_SMOKE=1)\n"
      "  --out DIR          results directory (same as WF_RESULTS_DIR; default: results)\n"
      "  --threads N        worker threads (same as WF_THREADS; set before first use)\n"
      "  --shards S         reference-set shards (same as WF_SHARDS)\n"
      "  --attacker NAME    attacker to run/train: adaptive | forest | kfp-knn\n"
      "  --model FILE       attacker file for train/eval (wf::io format)\n"
      "  --classes N        train/eval class count (default: the exp1 leading count)\n"
      "\n"
      "`wf train` crawls the exp1 scenario, trains the attacker on the train\n"
      "split, evaluates the held-out split (writes wf_eval.csv + wf_rankings.csv)\n"
      "and saves the model; `wf eval` reloads it and must reproduce both files\n"
      "bit-identically. `wf query` evaluates the same held-out split against a\n"
      "running `wf serve` daemon and writes the same two files — a served\n"
      "deployment is correct iff they diff clean against `wf eval`'s.\n";
  return code;
}

// Parses flags (applying Env overrides immediately) and collects
// positionals. Returns false on a malformed command line.
bool parse_flags(int argc, char** argv, int first, CliOptions& options) {
  const auto value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "wf: " << flag << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };
  // Strict integer-in-range parse for flag values the user typed: trailing
  // garbage is an error here, never a silent fallback.
  const auto parse_long = [](const char* v, long min, long max, long& out) {
    char* end = nullptr;
    const long parsed = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || parsed < min || parsed > max) return false;
    out = parsed;
    return true;
  };
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      util::Env::override_smoke(true);
    } else if (arg == "--all") {
      options.all = true;
    } else if (arg == "--out") {
      const char* v = value(i, "--out");
      if (v == nullptr) return false;
      util::Env::override_results_dir(v);
      options.out_given = true;
    } else if (arg == "--threads" || arg == "--shards") {
      // Same bounds as the WF_THREADS/WF_SHARDS env vars; a flag the user
      // typed gets an error instead of the env vars' silent fallback.
      const bool threads = arg == "--threads";
      const char* v = value(i, arg == "--threads" ? "--threads" : "--shards");
      if (v == nullptr) return false;
      char* end = nullptr;
      const long parsed = std::strtol(v, &end, 10);
      const long max = threads ? 512 : 4096;
      if (end == v || *end != '\0' || parsed < 1 || parsed > max) {
        std::cerr << "wf: " << arg << " must be an integer in [1, " << max << "]\n";
        return false;
      }
      if (threads) {
        util::Env::override_threads(static_cast<std::size_t>(parsed));
      } else {
        util::Env::override_shards(static_cast<std::size_t>(parsed));
      }
    } else if (arg == "--attacker") {
      const char* v = value(i, "--attacker");
      if (v == nullptr) return false;
      options.attacker = v;
      options.attacker_given = true;
    } else if (arg == "--model") {
      const char* v = value(i, "--model");
      if (v == nullptr) return false;
      options.model = v;
    } else if (arg == "--index") {
      const char* v = value(i, "--index");
      if (v == nullptr) return false;
      options.index = v;
    } else if (arg == "--clusters" || arg == "--probes") {
      const char* v = value(i, arg.c_str());
      if (v == nullptr) return false;
      long parsed = 0;
      if (!parse_long(v, 0, 1 << 24, parsed)) {
        std::cerr << "wf: " << arg << " must be an integer in [0, " << (1 << 24) << "]\n";
        return false;
      }
      if (arg == "--clusters") {
        options.clusters = static_cast<std::size_t>(parsed);
      } else {
        options.probes = static_cast<std::size_t>(parsed);
      }
    } else if (arg == "--classes") {
      const char* v = value(i, "--classes");
      if (v == nullptr) return false;
      char* end = nullptr;
      const long parsed = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || parsed < 1 || parsed > 100000) {
        std::cerr << "wf: --classes must be an integer in [1, 100000]\n";
        return false;
      }
      options.classes = static_cast<int>(parsed);
    } else if (arg == "--host") {
      const char* v = value(i, "--host");
      if (v == nullptr) return false;
      options.host = v;
    } else if (arg == "--port") {
      const char* v = value(i, "--port");
      if (v == nullptr) return false;
      long port = 0;
      if (!parse_long(v, 0, 65535, port)) {
        std::cerr << "wf: --port must be an integer in [0, 65535]\n";
        return false;
      }
      options.port = static_cast<int>(port);
    } else if (arg == "--slice") {
      const char* v = value(i, "--slice");
      if (v == nullptr) return false;
      const std::string spec = v;
      const std::size_t slash = spec.find('/');
      long index = -1, count = 0;
      if (slash == std::string::npos ||
          !parse_long(spec.substr(0, slash).c_str(), 0, 4095, index) ||
          !parse_long(spec.substr(slash + 1).c_str(), 1, 4096, count) || index >= count) {
        std::cerr << "wf: --slice must be I/N with 0 <= I < N <= 4096\n";
        return false;
      }
      options.slice_index = static_cast<std::size_t>(index);
      options.slice_count = static_cast<std::size_t>(count);
    } else if (arg == "--queue" || arg == "--max-batch" || arg == "--batch") {
      const char* v = value(i, arg.c_str());
      if (v == nullptr) return false;
      long parsed = 0;
      if (!parse_long(v, 1, 1 << 20, parsed)) {
        std::cerr << "wf: " << arg << " must be an integer in [1, " << (1 << 20) << "]\n";
        return false;
      }
      if (arg == "--queue") {
        options.queue_capacity = static_cast<std::size_t>(parsed);
      } else if (arg == "--max-batch") {
        options.max_batch = static_cast<std::size_t>(parsed);
      } else {
        options.query_batch = static_cast<std::size_t>(parsed);
      }
    } else if (arg == "--backend") {
      const char* v = value(i, "--backend");
      if (v == nullptr) return false;
      const std::string spec = v;
      const std::size_t colon = spec.rfind(':');
      long port = 0;
      if (colon == std::string::npos || colon == 0 ||
          !parse_long(spec.substr(colon + 1).c_str(), 1, 65535, port)) {
        std::cerr << "wf: --backend must be HOST:PORT\n";
        return false;
      }
      options.backends.push_back(
          {spec.substr(0, colon), static_cast<std::uint16_t>(port)});
    } else if (arg == "--coordinator") {
      options.coordinator = true;
    } else if (arg == "--stop") {
      options.stop = true;
    } else if (arg == "--partial") {
      options.partial = true;
    } else if (arg == "--timeout-ms" || arg == "--idle-timeout-ms" ||
               arg == "--fault-delay-ms") {
      const char* v = value(i, arg.c_str());
      if (v == nullptr) return false;
      long parsed = 0;
      if (!parse_long(v, 0, 3600000, parsed)) {
        std::cerr << "wf: " << arg << " must be an integer in [0, 3600000]\n";
        return false;
      }
      if (arg == "--timeout-ms") {
        options.timeout_ms = static_cast<int>(parsed);
      } else if (arg == "--idle-timeout-ms") {
        options.idle_timeout_ms = static_cast<int>(parsed);
      } else {
        options.fault_delay_ms = static_cast<int>(parsed);
      }
    } else if (arg == "--watch") {
      options.watch = true;
    } else if (arg == "--interval-ms") {
      const char* v = value(i, "--interval-ms");
      if (v == nullptr) return false;
      long parsed = 0;
      if (!parse_long(v, 1, 3600000, parsed)) {
        std::cerr << "wf: --interval-ms must be an integer in [1, 3600000]\n";
        return false;
      }
      options.interval_ms = static_cast<int>(parsed);
    } else if (arg == "--retries") {
      const char* v = value(i, "--retries");
      if (v == nullptr) return false;
      long parsed = 0;
      if (!parse_long(v, 1, 10000, parsed)) {
        std::cerr << "wf: --retries must be an integer in [1, 10000]\n";
        return false;
      }
      options.retries = static_cast<int>(parsed);
    } else if (arg == "--seed") {
      const char* v = value(i, "--seed");
      if (v == nullptr) return false;
      long parsed = 0;
      if (!parse_long(v, 0, std::numeric_limits<long>::max(), parsed)) {
        std::cerr << "wf: --seed must be a non-negative integer\n";
        return false;
      }
      options.seed = parsed;
      options.seed_given = true;
    } else if (arg == "--fault-kind") {
      const char* v = value(i, "--fault-kind");
      if (v == nullptr) return false;
      options.fault_kind = v;
    } else if (arg == "--fault-rate") {
      const char* v = value(i, "--fault-rate");
      if (v == nullptr) return false;
      char* end = nullptr;
      const double parsed = std::strtod(v, &end);
      if (end == v || *end != '\0' || parsed < 0.0 || parsed > 1.0) {
        std::cerr << "wf: --fault-rate must be a number in [0, 1]\n";
        return false;
      }
      options.fault_rate = parsed;
    } else if (arg == "--upstream") {
      const char* v = value(i, "--upstream");
      if (v == nullptr) return false;
      const std::string spec = v;
      const std::size_t colon = spec.rfind(':');
      long port = 0;
      if (colon == std::string::npos || colon == 0 ||
          !parse_long(spec.substr(colon + 1).c_str(), 1, 65535, port)) {
        std::cerr << "wf: --upstream must be HOST:PORT\n";
        return false;
      }
      options.upstream = {spec.substr(0, colon), static_cast<std::uint16_t>(port)};
      options.upstream_given = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "wf: unknown flag " << arg << "\n";
      return false;
    } else {
      options.positional.push_back(arg);
    }
  }
  return true;
}

int cmd_list() {
  util::Table table({"Experiment", "What it reproduces"});
  for (const eval::Experiment& experiment : eval::experiments())
    table.add_row({experiment.name, experiment.description});
  table.print();
  std::cout << "\nattackers (--attacker):";
  for (const std::string& name : eval::attacker_names()) std::cout << " " << name;
  std::cout << "\n";
  return 0;
}

int cmd_run(const CliOptions& options) {
  std::vector<const eval::Experiment*> selected;
  if (options.all) {
    for (const eval::Experiment& experiment : eval::experiments())
      selected.push_back(&experiment);
  } else {
    for (const std::string& name : options.positional) {
      const eval::Experiment* experiment = eval::find_experiment(name);
      if (experiment == nullptr) {
        std::cerr << "wf: unknown experiment \"" << name << "\" (see `wf list`)\n";
        return 1;
      }
      selected.push_back(experiment);
    }
  }
  if (selected.empty()) {
    std::cerr << "wf: nothing to run (name experiments or pass --all)\n";
    return 1;
  }
  const eval::AttackerFactory factory =
      options.attacker_given ? eval::attacker_factory(options.attacker)
                             : eval::AttackerFactory{};
  util::Env::log_effective();
  for (const eval::Experiment* experiment : selected) {
    if (selected.size() > 1)
      std::cout << "\n=== " << experiment->name << ": " << experiment->description
                << " ===\n";
    if (options.attacker_given && !experiment->accepts_attacker)
      util::log_info() << experiment->name << ": fixed attacker roster; --attacker ignored";
    const int code = experiment->run(experiment->accepts_attacker ? factory
                                                                  : eval::AttackerFactory{});
    if (code != 0) return code;
  }
  return 0;
}

// The shared train/eval scenario: the exp1 crawl of the wiki site at
// `classes` classes, split into train/held-out halves. Keeping the seeds
// identical between `wf train` and `wf eval` is what makes the save ->
// load -> evaluate round trip diffable.
struct TrainEvalWorld {
  eval::WikiScenario scenario;
  int classes;
  data::SampleSplit split;

  explicit TrainEvalWorld(int requested_classes) {
    const eval::ScenarioConfig& cfg = scenario.config();
    classes = requested_classes > 0 ? requested_classes : cfg.exp1_class_counts.front();
    data::DatasetBuildOptions crawl;
    crawl.samples_per_class = cfg.samples_per_class;
    crawl.sequence = cfg.seq3;
    crawl.browser = cfg.browser;
    crawl.seed = cfg.crawl_seed + static_cast<std::uint64_t>(classes);
    const data::Dataset dataset = data::build_dataset(scenario.wiki_site(classes),
                                                      scenario.wiki_farm(), {}, crawl);
    split = data::split_samples(dataset, cfg.train_samples_per_class, cfg.split_seed);
  }
};

// The two files every evaluation path emits, from the rankings alone:
// wf_eval.csv (the top-n summary) and wf_rankings.csv (the top 10 guesses
// per query, distances as hexfloats so a diff is a bit-identity check).
// `wf train`, `wf eval` and `wf query` all funnel through here — identical
// rankings therefore produce byte-identical files.
void write_eval_outputs(const std::string& attacker_name,
                        const std::vector<std::vector<core::RankedLabel>>& rankings,
                        const TrainEvalWorld& world) {
  const std::vector<int> labels = world.split.second.labels_of();
  const core::TopNCurve curve = core::curve_from_rankings(rankings, labels, 10);
  util::Table table({"Attacker", "Classes", "Top-1", "Top-3", "Top-5", "Top-10"});
  table.add_row({attacker_name, std::to_string(world.classes), util::Table::pct(curve.top(1)),
                 util::Table::pct(curve.top(3)), util::Table::pct(curve.top(5)),
                 util::Table::pct(curve.top(10))});
  table.print();
  const std::string csv = eval::results_dir() + "/wf_eval.csv";
  table.write_csv(csv);
  std::cout << "CSV written to " << csv << "\n";

  util::Table ranks({"Query", "Rank", "Label", "Votes", "Distance"});
  for (std::size_t q = 0; q < rankings.size(); ++q) {
    for (std::size_t r = 0; r < rankings[q].size() && r < 10; ++r) {
      const core::RankedLabel& entry = rankings[q][r];
      std::ostringstream distance;
      distance << std::hexfloat << entry.distance;
      ranks.add_row({std::to_string(q), std::to_string(r), std::to_string(entry.label),
                     std::to_string(entry.votes), distance.str()});
    }
  }
  const std::string ranks_csv = eval::results_dir() + "/wf_rankings.csv";
  ranks.write_csv(ranks_csv);
  std::cout << "rankings written to " << ranks_csv << "\n";
}

int cmd_train(const CliOptions& options) {
  if (options.model.empty()) {
    std::cerr << "wf: train needs --model FILE\n";
    return 1;
  }
  util::Env::log_effective();
  // Resolve the attacker before the crawl so a bad name fails fast.
  const eval::AttackerFactory factory = eval::attacker_factory(options.attacker);
  TrainEvalWorld world(options.classes);
  const eval::ScenarioConfig& cfg = world.scenario.config();
  const std::unique_ptr<core::Attacker> attacker = factory(cfg.embedding3, cfg);
  util::log_info() << "training \"" << attacker->name() << "\" on " << world.classes
                   << " classes (" << world.split.first.size() << " samples)";
  const core::TrainStats stats = attacker->train(world.split.first);
  std::cout << "trained " << attacker->name() << " in " << util::Table::num(stats.seconds, 1)
            << "s\n\n== held-out evaluation ==\n";
  write_eval_outputs(attacker->name(), attacker->fingerprint_batch(world.split.second), world);
  attacker->save(options.model);
  std::cout << "model saved to " << options.model << "\n";
  return 0;
}

int cmd_eval(const CliOptions& options) {
  if (options.model.empty()) {
    std::cerr << "wf: eval needs --model FILE\n";
    return 1;
  }
  util::Env::log_effective();
  const std::unique_ptr<core::Attacker> attacker = io::load_attacker(options.model);
  util::log_info() << "loaded \"" << attacker->name() << "\" from " << options.model;
  TrainEvalWorld world(options.classes);
  // A bit-identical re-evaluation needs the training crawl: refuse a world
  // whose class set does not match what the model targets, instead of
  // silently scoring it against the wrong site.
  if (attacker->target_classes() != world.split.first.classes()) {
    std::cerr << "wf: model targets " << attacker->target_classes().size()
              << " classes but the crawl has " << world.split.first.classes().size()
              << "; pass the --classes/--smoke used at training time\n";
    return 1;
  }
  std::cout << "== held-out evaluation (reloaded model) ==\n";
  write_eval_outputs(attacker->name(), attacker->fingerprint_batch(world.split.second), world);
  return 0;
}

// wf index build/info/rebuild: the on-disk IVF index life cycle. build
// clusters a saved model's reference set into an IVFX file; info prints its
// header without loading the data; rebuild compacts base + journal in place.
int cmd_index(const CliOptions& options) {
  if (options.positional.empty()) {
    std::cerr << "wf: index needs a verb: build | info | rebuild\n";
    return 1;
  }
  const std::string& verb = options.positional.front();
  if (options.index.empty()) {
    std::cerr << "wf: index " << verb << " needs --index FILE\n";
    return 1;
  }
  if (verb == "build") {
    if (options.model.empty()) {
      std::cerr << "wf: index build needs --model FILE (a saved attacker)\n";
      return 1;
    }
    util::Env::log_effective();
    const std::unique_ptr<core::Attacker> attacker = io::load_attacker(options.model);
    const auto* adaptive = dynamic_cast<const core::AdaptiveFingerprinter*>(attacker.get());
    if (adaptive == nullptr) {
      std::cerr << "wf: attacker \"" << attacker->name()
                << "\" has no reference set to index (use the adaptive attacker)\n";
      return 1;
    }
    index::IvfConfig config;
    config.clusters = options.clusters;
    config.probes = options.probes;
    if (options.seed_given) config.seed = static_cast<std::uint64_t>(options.seed);
    const index::IvfReferenceStore store(adaptive->references(), config);
    index::write_index_file(options.index, store);
    std::cout << "wf index: wrote " << store.size() << " references in " << store.clusters()
              << " clusters (dim " << store.dim() << ", probes "
              << (options.probes == 0 ? std::string("all") : std::to_string(options.probes))
              << ") to " << options.index << "\n";
    return 0;
  }
  if (verb == "info") {
    const index::IndexInfo info = index::read_index_info(options.index);
    util::Table table({"Field", "Value"});
    table.add_row({"dim", std::to_string(info.dim)});
    table.add_row({"clusters", std::to_string(info.clusters)});
    table.add_row({"rows", std::to_string(info.rows)});
    table.add_row({"classes", std::to_string(info.n_class_ids)});
    table.add_row({"default_probes", info.config.probes == 0
                                         ? std::string("all")
                                         : std::to_string(info.config.probes)});
    table.add_row({"kmeans_seed", std::to_string(info.config.seed)});
    table.add_row({"next_row_id", std::to_string(info.next_row_id)});
    table.add_row({"file_bytes", std::to_string(info.file_bytes)});
    table.add_row({"cluster_rows_min", std::to_string(info.min_cluster_rows)});
    table.add_row({"cluster_rows_max", std::to_string(info.max_cluster_rows)});
    table.add_row({"journal_bytes", std::to_string(info.journal_bytes)});
    table.add_row({"journal_adds", std::to_string(info.journal_adds)});
    table.add_row({"journal_removes", std::to_string(info.journal_removes)});
    table.print();
    return 0;
  }
  if (verb == "rebuild") {
    const std::size_t rows = index::rebuild_index_file(options.index);
    std::cout << "wf index: rebuilt " << options.index << " (" << rows
              << " references, journal compacted)\n";
    return 0;
  }
  std::cerr << "wf: unknown index verb \"" << verb << "\" (build | info | rebuild)\n";
  return 1;
}

int cmd_serve(const CliOptions& options) {
  util::Env::log_effective();
  std::shared_ptr<serve::Handler> handler;
  if (options.coordinator) {
    if (!options.model.empty() || options.slice_count > 1) {
      std::cerr << "wf: --coordinator takes --backend daemons, not --model/--slice\n";
      return 1;
    }
    if (options.backends.empty()) {
      std::cerr << "wf: --coordinator needs at least one --backend HOST:PORT\n";
      return 1;
    }
    // Backends may still be binding when the coordinator starts; retry the
    // handshake for a while instead of racing start order.
    serve::CoordinatorConfig coordinator_config;
    coordinator_config.connect_retry_ms = 10000;
    coordinator_config.timeout_ms = effective_timeout_ms(options);
    coordinator_config.allow_partial = options.partial;
    coordinator_config.retry.max_attempts = options.retries;
    handler = std::make_shared<serve::CoordinatorHandler>(options.backends, coordinator_config);
    std::cout << "wf serve: coordinating " << options.backends.size() << " backends"
              << (options.partial ? " (partial answers allowed)" : "") << "\n";
  } else {
    if (options.model.empty()) {
      std::cerr << "wf: serve needs --model FILE (or --coordinator)\n";
      return 1;
    }
    std::unique_ptr<core::Attacker> attacker = io::load_attacker(options.model);
    util::log_info() << "loaded \"" << attacker->name() << "\" from " << options.model;
    if (!options.index.empty()) {
      auto* adaptive = dynamic_cast<core::AdaptiveFingerprinter*>(attacker.get());
      if (adaptive == nullptr) {
        std::cerr << "wf: --index needs the adaptive attacker, not \"" << attacker->name()
                  << "\"\n";
        return 1;
      }
      if (options.slice_count > 1) {
        std::cerr << "wf: --index serves the whole reference set; drop --slice\n";
        return 1;
      }
      // mmap-backed open: O(1) in the data. --probes overrides the file's
      // default; 0 keeps it (and a file built without --probes stays exact,
      // which is what the CI rankings diff against `wf eval` relies on).
      std::shared_ptr<core::ReferenceStore> store =
          index::open_index(options.index, options.probes);
      util::log_info() << "serving references from index " << options.index << " ("
                       << store->size() << " rows)";
      adaptive->set_store(std::move(store));
    }
    handler = std::make_shared<serve::LocalHandler>(std::move(attacker), options.slice_index,
                                                    options.slice_count);
  }

  serve::ServerConfig config;
  config.host = options.host;
  config.port = static_cast<std::uint16_t>(options.port);
  config.queue_capacity = options.queue_capacity;
  config.max_batch = options.max_batch;
  config.request_timeout_ms = effective_timeout_ms(options);
  config.idle_timeout_ms = options.idle_timeout_ms;
  serve::Server server(std::move(handler), config);
  server.start();
  if (options.slice_count > 1)
    std::cout << "wf serve: shard slice " << options.slice_index << "/" << options.slice_count
              << "\n";
  // Scripts wait for this exact line before starting clients; flush it.
  std::cout << "wf serve: listening on " << options.host << ":" << server.port() << "\n"
            << std::flush;
  server.wait();
  server.stop();
  const auto count = [](const char* name) {
    return obs::Registry::global().counter(name).value();
  };
  std::cout << "wf serve: stopped after " << count("serve.requests_total") << " requests ("
            << count("serve.queries_total") << " queries in " << count("serve.batches_total")
            << " model calls, " << count("serve.rejected_total")
            << " rejected for backpressure)\n";
  return 0;
}

int cmd_query(const CliOptions& options) {
  if (options.port == 0) {
    std::cerr << "wf: query needs --port P (the daemon's listen port)\n";
    return 1;
  }
  serve::ClientConfig client_config;
  client_config.connect_retry_ms = 10000;
  client_config.timeout_ms = effective_timeout_ms(options);
  client_config.retry.max_attempts = options.retries;
  serve::Client client(options.host, static_cast<std::uint16_t>(options.port), client_config);
  if (options.stop) {
    client.stop_server();
    std::cout << "wf query: daemon at " << options.host << ":" << options.port
              << " stopped\n";
    return 0;
  }
  util::Env::log_effective();
  const serve::ServerInfo info = client.hello();
  util::log_info() << "daemon serves \"" << info.attacker << "\" (" << info.n_references
                   << " references, " << info.classes.size() << " classes)";
  TrainEvalWorld world(options.classes);
  // Same guard as `wf eval`: scoring this crawl against a daemon trained on
  // another world would be silently meaningless.
  if (info.classes != world.split.first.classes()) {
    std::cerr << "wf: daemon targets " << info.classes.size() << " classes but the crawl has "
              << world.split.first.classes().size()
              << "; pass the --classes/--smoke used at training time\n";
    return 1;
  }

  // Stream the held-out split in request frames of --batch queries;
  // backpressure retries until accepted. Rankings are batch-composition
  // independent, so the frame size cannot change the result.
  const data::Dataset& test = world.split.second;
  std::vector<std::vector<core::RankedLabel>> rankings;
  rankings.reserve(test.size());
  std::size_t degraded_batches = 0;
  for (std::size_t begin = 0; begin < test.size(); begin += options.query_batch) {
    const std::size_t end = std::min(test.size(), begin + options.query_batch);
    nn::Matrix batch(end - begin, test.feature_dim());
    for (std::size_t i = begin; i < end; ++i) batch.set_row(i - begin, test[i].features);
    serve::ReplyMeta meta;
    serve::Rankings part = client.query_until_accepted(batch, &meta);
    if (meta.degraded) {
      ++degraded_batches;
      util::log_warn() << "degraded reply: only " << meta.covered_references << " of "
                       << meta.total_references << " references covered";
    }
    if (part.size() != end - begin)
      throw io::IoError("daemon answered " + std::to_string(part.size()) + " rankings for " +
                        std::to_string(end - begin) + " queries");
    for (std::vector<core::RankedLabel>& ranking : part) rankings.push_back(std::move(ranking));
  }
  if (degraded_batches > 0)
    util::log_warn() << degraded_batches
                     << " batch(es) were answered from partial coverage; the written "
                        "rankings are NOT comparable to `wf eval`'s";

  std::cout << "== held-out evaluation (served by " << options.host << ":" << options.port
            << ") ==\n";
  write_eval_outputs(info.attacker, rankings, world);
  return 0;
}

// One STAT roundtrip against a running daemon (or a --watch polling loop):
// print the snapshot table, the recent spans when the daemon traced any,
// and with --out also wf_stats.csv for CI to assert on.
int cmd_stats(const CliOptions& options) {
  if (options.port == 0) {
    std::cerr << "wf: stats needs --port P (the daemon's listen port)\n";
    return 1;
  }
  serve::ClientConfig client_config;
  client_config.connect_retry_ms = 10000;
  client_config.timeout_ms = effective_timeout_ms(options);
  serve::Client client(options.host, static_cast<std::uint16_t>(options.port), client_config);
  for (;;) {
    std::vector<obs::SpanRecord> spans;
    const obs::Snapshot snapshot = client.stats(&spans);
    const util::Table table = obs::snapshot_table(snapshot);
    table.print();
    if (!spans.empty()) {
      std::cout << "\nrecent spans (" << spans.size() << "):\n";
      for (const obs::SpanRecord& span : spans)
        std::cout << "  thread " << span.thread << " #" << span.sequence << " "
                  << std::string(static_cast<std::size_t>(span.depth) * 2, ' ') << span.name
                  << " "
                  << util::Table::num(static_cast<double>(span.duration_us) / 1000.0, 3)
                  << " ms\n";
    }
    if (options.out_given) {
      const std::string csv = eval::results_dir() + "/wf_stats.csv";
      table.write_csv(csv);
      std::cout << "stats written to " << csv << "\n";
    }
    if (!options.watch) break;
    // Paced polling between snapshots, not a failure-retry loop.
    std::this_thread::sleep_for(  // wf-lint: allow(retry-policy)
        std::chrono::milliseconds(options.interval_ms));
    std::cout << "\n";
  }
  return 0;
}

int cmd_proxy(const CliOptions& options) {
  if (!options.upstream_given) {
    std::cerr << "wf: proxy needs --upstream HOST:PORT\n";
    return 1;
  }
  serve::FaultPlan plan;
  plan.kind = serve::parse_fault_kind(options.fault_kind);
  plan.rate = options.fault_rate;
  plan.delay_ms = options.fault_delay_ms;
  plan.seed = static_cast<std::uint64_t>(options.seed);
  serve::FaultProxy proxy(options.host, static_cast<std::uint16_t>(options.port),
                          options.upstream, plan);
  // Scripts wait for this exact line before starting clients; flush it.
  std::cout << "wf proxy: listening on " << options.host << ":" << proxy.port()
            << " -> " << options.upstream.host << ":" << options.upstream.port
            << " (fault " << serve::fault_kind_name(plan.kind) << " @ " << plan.rate << ")\n"
            << std::flush;
  proxy.wait();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(1);
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") return usage(0);

  CliOptions options;
  if (!parse_flags(argc, argv, 2, options)) return 1;

  try {
    if (command == "list") return cmd_list();
    if (command == "run") return cmd_run(options);
    if (command == "train") return cmd_train(options);
    if (command == "eval") return cmd_eval(options);
    if (command == "index") return cmd_index(options);
    if (command == "serve") return cmd_serve(options);
    if (command == "query") return cmd_query(options);
    if (command == "stats") return cmd_stats(options);
    if (command == "proxy") return cmd_proxy(options);
  } catch (const std::exception& e) {
    std::cerr << "wf: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "wf: unknown command \"" << command << "\"\n\n";
  return usage(1);
}
