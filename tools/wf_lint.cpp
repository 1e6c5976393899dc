// wf-lint: the project invariant linter.
//
// The reproduction's headline guarantee — bit-identical rankings at any
// thread/shard count and under injected faults — rests on a handful of
// code-level invariants that ordinary compilers and sanitizers do not
// enforce:
//
//   raw-random          all randomness flows through seeded util::Rng
//   wall-clock          no wall-clock reads (system_clock, time(), ...)
//   unordered-iteration no unordered-container iteration in output paths
//                       (serialization, CSV, wire frames)
//   socket-deadline     raw blocking socket calls live only in
//                       src/serve/net.cpp, behind Deadline-aware wrappers
//   mmap-discipline     raw memory-mapping calls (mmap, munmap, mprotect, ...)
//                       live only in src/io/mmap.cpp, behind io::MappedFile
//   retry-policy        every sleep-paced loop runs on serve::Backoff /
//                       RetryPolicy, never an ad-hoc spin
//   clock-discipline    monotonic-clock reads live only in util::Stopwatch,
//                       serve::Deadline (serve/net) and wf::obs
//   swallowed-error     no empty catch block without an explanatory comment
//                       (the "ignored write_csv/save failure" bug class)
//   unsafe-libc         banned unsafe/locale-dependent libc calls
//   assert-macro        WF_CHECK/WF_DCHECK (util/check.hpp), not raw assert
//
// The checker is deliberately token/regex-based: it strips comments and
// string literals, then pattern-matches the remaining code. That keeps it
// dependency-free and fast enough to run on every build, at the cost of
// needing occasional inline suppressions:
//
//   some_call();  // wf-lint: allow(rule-id) why this is fine
//
// (same line or the line directly above). `--self-test <fixtures-dir>`
// checks the linter against a corpus of seeded violations: every file under
// <dir>/bad must trigger exactly the rules named in its `wf-lint-expect:`
// comments, every file under <dir>/good must pass clean. Fixture files opt
// into path-scoped rules with a `wf-lint-path: <virtual/path>` comment.
//
// Exit status: 0 clean, 1 findings (or self-test mismatch), 2 usage error.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
};

struct SourceFile {
  std::string display_path;           // repo-relative (or fixture-declared) path
  std::vector<std::string> raw;       // verbatim lines
  std::vector<std::string> code;      // comments + literals blanked out
  std::set<std::string> file_allows;  // wf-lint: file-allow(rule)
};

struct RuleInfo {
  std::string id;
  std::string what;
};

const std::vector<RuleInfo> kRules = {
    {"raw-random", "randomness outside seeded util::Rng (rand, mt19937, random_device, ...)"},
    {"wall-clock", "wall-clock reads (time(), system_clock, gettimeofday) break determinism"},
    {"unordered-iteration", "unordered-container iteration in a serialization/CSV/wire path"},
    {"socket-deadline", "raw blocking socket call outside the Deadline wrappers in serve/net.cpp"},
    {"mmap-discipline", "raw memory-mapping call outside the io::MappedFile wrapper in io/mmap.cpp"},
    {"retry-policy", "sleep-paced loop without serve::Backoff/RetryPolicy pacing"},
    {"clock-discipline",
     "raw monotonic-clock read outside util::Stopwatch, serve::Deadline and wf::obs"},
    {"swallowed-error", "empty catch block without an explanatory comment"},
    {"unsafe-libc", "banned unsafe libc call (sprintf, strcpy, atoi, strtok, ...)"},
    {"assert-macro", "raw assert(); use WF_CHECK/WF_DCHECK from util/check.hpp"},
};

// ---------------------------------------------------------------------------
// Lexing-lite: blank comments and string/char literals while preserving the
// line structure, so rule regexes never match inside either.

std::vector<std::string> strip_code(const std::vector<std::string>& raw) {
  std::vector<std::string> out;
  out.reserve(raw.size());
  enum class State { code, block_comment };
  State state = State::code;
  for (const std::string& line : raw) {
    std::string stripped(line.size(), ' ');
    for (std::size_t i = 0; i < line.size();) {
      if (state == State::block_comment) {
        if (line.compare(i, 2, "*/") == 0) {
          state = State::code;
          i += 2;
        } else {
          ++i;
        }
        continue;
      }
      if (line.compare(i, 2, "//") == 0) break;  // rest of line is comment
      if (line.compare(i, 2, "/*") == 0) {
        state = State::block_comment;
        i += 2;
        continue;
      }
      if (line[i] == '"' || line[i] == '\'') {
        const char quote = line[i];
        // Raw strings: treat R"( ... )" conservatively as ending at the
        // final )" on the same line — good enough for a linter.
        const bool is_raw = quote == '"' && i > 0 && line[i - 1] == 'R';
        stripped[i] = quote;
        ++i;
        while (i < line.size()) {
          if (!is_raw && line[i] == '\\') {
            i += 2;
            continue;
          }
          if (line[i] == quote && (!is_raw || (i > 0 && line[i - 1] == ')'))) {
            stripped[i] = quote;
            ++i;
            break;
          }
          ++i;
        }
        continue;
      }
      stripped[i] = line[i];
      ++i;
    }
    out.push_back(std::move(stripped));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Suppressions and fixture directives (parsed from the RAW text, since they
// live in comments).

std::set<std::string> allows_on_line(const std::string& raw_line) {
  std::set<std::string> allows;
  static const std::regex re(R"(wf-lint:\s*allow\(\s*([a-z\-,\s]+?)\s*\))");
  for (auto it = std::sregex_iterator(raw_line.begin(), raw_line.end(), re);
       it != std::sregex_iterator(); ++it) {
    std::stringstream list((*it)[1].str());
    std::string rule;
    while (std::getline(list, rule, ',')) {
      rule.erase(std::remove_if(rule.begin(), rule.end(), ::isspace), rule.end());
      if (!rule.empty()) allows.insert(rule);
    }
  }
  return allows;
}

bool is_suppressed(const SourceFile& f, std::size_t line_index, const std::string& rule) {
  if (f.file_allows.count(rule)) return true;
  const auto check = [&](std::size_t i) {
    if (i >= f.raw.size()) return false;
    return allows_on_line(f.raw[i]).count(rule) > 0;
  };
  return check(line_index) || (line_index > 0 && check(line_index - 1));
}

std::string directive_value(const std::vector<std::string>& raw, const std::string& key) {
  const std::regex re(key + R"(:\s*([^\s]+))");
  for (const std::string& line : raw) {
    std::smatch m;
    if (std::regex_search(line, m, re)) return m[1].str();
  }
  return {};
}

std::set<std::string> expected_rules(const std::vector<std::string>& raw) {
  std::set<std::string> rules;
  static const std::regex re(R"(wf-lint-expect:\s*([a-z\-]+))");
  for (const std::string& line : raw) {
    for (auto it = std::sregex_iterator(line.begin(), line.end(), re);
         it != std::sregex_iterator(); ++it)
      rules.insert((*it)[1].str());
  }
  return rules;
}

// ---------------------------------------------------------------------------
// Path scoping.

bool path_contains(const std::string& path, const std::string& fragment) {
  return path.find(fragment) != std::string::npos;
}

bool starts_with(const std::string& path, const std::string& prefix) {
  return path.rfind(prefix, 0) == 0;
}

bool in_library(const std::string& path) {
  return starts_with(path, "src/") || starts_with(path, "include/");
}

// ---------------------------------------------------------------------------
// Rule engine helpers.

void match_lines(const SourceFile& f, const std::regex& re, const std::string& rule,
                 const std::string& message, std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (!std::regex_search(f.code[i], re)) continue;
    if (is_suppressed(f, i, rule)) continue;
    findings.push_back({f.display_path, i + 1, rule, message});
  }
}

// --- raw-random -------------------------------------------------------------

void rule_raw_random(const SourceFile& f, std::vector<Finding>& findings) {
  if (path_contains(f.display_path, "util/rng.hpp")) return;  // the one blessed home
  static const std::regex re(
      R"((^|[^\w])(rand|srand|rand_r|drand48)\s*\(|\brandom_device\b|\bmt19937|\bdefault_random_engine\b|\bminstd_rand)");
  match_lines(f, re, "raw-random",
              "randomness must flow through a seeded util::Rng (fork() a stream)", findings);
}

// --- wall-clock -------------------------------------------------------------

void rule_wall_clock(const SourceFile& f, std::vector<Finding>& findings) {
  static const std::regex re(
      R"((^|[^\w.>])(time|clock)\s*\(|\bsystem_clock\b|\bgettimeofday\s*\(|\blocaltime\b|\bgmtime\b)");
  match_lines(f, re, "wall-clock",
              "wall-clock reads are nondeterministic; use util::Stopwatch (steady_clock) "
              "for timing and util::Rng for seeds",
              findings);
}

// --- unordered-iteration ----------------------------------------------------

bool is_output_path(const SourceFile& f) {
  if (path_contains(f.display_path, "/io/") || path_contains(f.display_path, "serve/frame") ||
      path_contains(f.display_path, "util/table"))
    return true;
  for (const std::string& line : f.code)
    if (line.find("io::Writer") != std::string::npos ||
        line.find("write_csv") != std::string::npos ||
        line.find("add_row") != std::string::npos)
      return true;
  return false;
}

void rule_unordered_iteration(const SourceFile& f, std::vector<Finding>& findings) {
  if (!is_output_path(f)) return;
  // Names declared (or bound) with an unordered container type in this file.
  std::set<std::string> names;
  static const std::regex decl(R"(unordered_(?:map|set)\s*<[^;{]*>\s*[&*]?\s*(\w+)\s*[;={(,)])");
  for (const std::string& line : f.code) {
    for (auto it = std::sregex_iterator(line.begin(), line.end(), decl);
         it != std::sregex_iterator(); ++it)
      names.insert((*it)[1].str());
  }
  if (names.empty()) return;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    bool hit = false;
    for (const std::string& name : names) {
      // Range-for over the container, or a classic iterator loop. A bulk
      // copy into a vector/map (the blessed sort-then-write pattern) also
      // calls .begin(), so only `for (...)` lines count as iteration.
      const std::regex range_for(R"(for\s*\([^;)]*:\s*)" + name + R"(\b)");
      const std::regex iter_for(R"(for\s*\([^;]*=\s*)" + name +
                                R"(\s*\.\s*c?begin\s*\()");
      if (std::regex_search(line, range_for) || std::regex_search(line, iter_for)) {
        hit = true;
        break;
      }
    }
    if (!hit || is_suppressed(f, i, "unordered-iteration")) continue;
    findings.push_back({f.display_path, i + 1, "unordered-iteration",
                        "iteration order of unordered containers is unspecified; sort into a "
                        "vector (or use std::map) before writing CSV/wire/serialized output"});
  }
}

// --- socket-deadline --------------------------------------------------------

void rule_socket_deadline(const SourceFile& f, std::vector<Finding>& findings) {
  if (path_contains(f.display_path, "serve/net.cpp")) return;  // the wrapper itself
  static const std::regex re(
      R"(::\s*(recv|recvfrom|recvmsg|send|sendto|sendmsg|accept4?|connect|poll|select|pselect)\s*\()");
  match_lines(f, re, "socket-deadline",
              "blocking socket calls live in src/serve/net.cpp only, behind the "
              "Deadline-aware Socket/Listener wrappers",
              findings);
}

// --- mmap-discipline --------------------------------------------------------

void rule_mmap_discipline(const SourceFile& f, std::vector<Finding>& findings) {
  if (path_contains(f.display_path, "io/mmap.cpp")) return;  // the RAII wrapper itself
  static const std::regex re(
      R"((^|[^\w])(mmap|mmap64|munmap|mprotect|msync|madvise|mremap)\s*\()");
  match_lines(f, re, "mmap-discipline",
              "raw memory-mapping calls live in src/io/mmap.cpp only, behind the "
              "io::MappedFile RAII wrapper (unmap-on-destroy, error checking in one place)",
              findings);
}

// --- retry-policy -----------------------------------------------------------

void rule_retry_policy(const SourceFile& f, std::vector<Finding>& findings) {
  if (!in_library(f.display_path)) return;  // tests/benches sleep legitimately
  if (path_contains(f.display_path, "serve/retry.hpp")) return;  // the policy itself
  static const std::regex re(R"(\b(sleep_for|sleep_until|usleep|nanosleep)\s*\()");
  static const std::regex paced(R"(\bBackoff\b|\bRetryPolicy\b|\bbackoff\b)");
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (!std::regex_search(f.code[i], re)) continue;
    // A sleep is fine when a Backoff/RetryPolicy computed its delay nearby —
    // the schedule is then bounded, exponential and seeded.
    bool has_pacing = false;
    const std::size_t lo = i >= 12 ? i - 12 : 0;
    for (std::size_t j = lo; j <= i && !has_pacing; ++j)
      has_pacing = std::regex_search(f.code[j], paced);
    if (has_pacing || is_suppressed(f, i, "retry-policy")) continue;
    findings.push_back({f.display_path, i + 1, "retry-policy",
                        "sleep-paced waiting must run on serve::Backoff/RetryPolicy "
                        "(bounded attempts, exponential backoff, seeded jitter)"});
  }
}

// --- clock-discipline -------------------------------------------------------

void rule_clock_discipline(const SourceFile& f, std::vector<Finding>& findings) {
  if (!in_library(f.display_path)) return;  // tests/benches may time directly
  // The blessed homes of monotonic-clock reads: the Stopwatch, the socket
  // Deadline machinery (serve/net) and the obs span tracer. Everyone else
  // measures through those wrappers, so timing code stays auditable in one
  // place and never silently switches clock sources.
  if (path_contains(f.display_path, "util/stopwatch.hpp") ||
      path_contains(f.display_path, "serve/net") || path_contains(f.display_path, "/obs/"))
    return;
  static const std::regex re(R"(\bsteady_clock\b|\bhigh_resolution_clock\b)");
  match_lines(f, re, "clock-discipline",
              "raw monotonic-clock reads belong in util::Stopwatch, serve::Deadline "
              "(serve/net) or wf::obs spans; time through those wrappers",
              findings);
}

// --- swallowed-error --------------------------------------------------------

void rule_swallowed_error(const SourceFile& f, std::vector<Finding>& findings) {
  if (!in_library(f.display_path)) return;
  // Find `catch (...) {` in the code text, then check whether the braces
  // close with nothing but whitespace between them; if so, require a comment
  // inside the block in the RAW text (or a suppression).
  static const std::regex catch_re(R"(catch\s*\(([^)]*)\)\s*\{)");
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    for (auto it = std::sregex_iterator(f.code[i].begin(), f.code[i].end(), catch_re);
         it != std::sregex_iterator(); ++it) {
      const std::size_t open = static_cast<std::size_t>(it->position(0)) + it->length(0) - 1;
      // Walk forward from the opening brace across lines.
      std::size_t line = i, col = open + 1;
      bool empty = true, closed = false, has_comment = false;
      std::size_t close_line = i;
      while (line < f.code.size() && !closed) {
        const std::string& code_line = f.code[line];
        for (; col < code_line.size(); ++col) {
          const char c = code_line[col];
          if (c == '}') {
            closed = true;
            close_line = line;
            break;
          }
          if (!std::isspace(static_cast<unsigned char>(c))) {
            empty = false;
            break;
          }
        }
        if (!closed && !empty) break;
        if (!closed) {
          // Raw-text comment anywhere on an interior line counts as intent.
          if (f.raw[line].find("//") != std::string::npos ||
              f.raw[line].find("/*") != std::string::npos)
            has_comment = true;
          ++line;
          col = 0;
        }
      }
      if (closed && f.raw[close_line].find("//") != std::string::npos) has_comment = true;
      if (f.raw[i].find("//") != std::string::npos) has_comment = true;
      if (!closed || !empty || has_comment) continue;
      if (is_suppressed(f, i, "swallowed-error")) continue;
      findings.push_back({f.display_path, i + 1, "swallowed-error",
                          "empty catch silently swallows the failure (the ignored "
                          "write_csv/save bug class); handle it, rethrow, or leave a comment "
                          "saying why dropping it is correct"});
    }
  }
}

// --- unsafe-libc ------------------------------------------------------------

void rule_unsafe_libc(const SourceFile& f, std::vector<Finding>& findings) {
  static const std::regex re(
      R"((^|[^\w])(sprintf|vsprintf|strcpy|strncpy|strcat|strncat|gets|strtok|tmpnam|mktemp|atoi|atol|atoll|atof|alloca|setjmp|longjmp)\s*\()");
  match_lines(f, re, "unsafe-libc",
              "banned unsafe/locale-dependent libc call; use std::snprintf, std::string, "
              "std::from_chars or util::Env::parse_count instead",
              findings);
}

// --- assert-macro -----------------------------------------------------------

void rule_assert_macro(const SourceFile& f, std::vector<Finding>& findings) {
  if (!in_library(f.display_path)) return;  // the test harness has its own CHECK
  if (path_contains(f.display_path, "util/check.hpp")) return;
  static const std::regex re(R"((^|[^\w_])assert\s*\()");
  match_lines(f, re, "assert-macro",
              "raw assert() vanishes under NDEBUG and aborts without context; use "
              "WF_CHECK (always on) or WF_DCHECK (debug) from util/check.hpp",
              findings);
}

// ---------------------------------------------------------------------------

std::vector<Finding> lint_file(const SourceFile& f) {
  std::vector<Finding> findings;
  rule_raw_random(f, findings);
  rule_wall_clock(f, findings);
  rule_unordered_iteration(f, findings);
  rule_socket_deadline(f, findings);
  rule_mmap_discipline(f, findings);
  rule_retry_policy(f, findings);
  rule_clock_discipline(f, findings);
  rule_swallowed_error(f, findings);
  rule_unsafe_libc(f, findings);
  rule_assert_macro(f, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) { return a.line < b.line; });
  return findings;
}

SourceFile load_file(const fs::path& path, const std::string& display_path) {
  SourceFile f;
  f.display_path = display_path;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "wf-lint: cannot open " << path << "\n";
    std::exit(2);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    f.raw.push_back(line);
  }
  f.code = strip_code(f.raw);
  static const std::regex file_allow(R"(wf-lint:\s*file-allow\(\s*([a-z\-]+)\s*\))");
  for (const std::string& raw_line : f.raw) {
    for (auto it = std::sregex_iterator(raw_line.begin(), raw_line.end(), file_allow);
         it != std::sregex_iterator(); ++it)
      f.file_allows.insert((*it)[1].str());
  }
  return f;
}

bool lintable_extension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" || ext == ".cxx";
}

std::vector<fs::path> collect_tree(const fs::path& root) {
  std::vector<fs::path> files;
  for (const char* dir : {"src", "include", "tools", "bench", "examples", "tests"}) {
    const fs::path sub = root / dir;
    if (!fs::exists(sub)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(sub)) {
      if (!entry.is_regular_file() || !lintable_extension(entry.path())) continue;
      const std::string rel = fs::relative(entry.path(), root).generic_string();
      if (rel.find("lint_fixtures") != std::string::npos) continue;  // seeded violations
      if (rel.find("build") == 0) continue;
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

void print_findings(const std::vector<Finding>& findings) {
  for (const Finding& f : findings)
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
}

int run_self_test(const fs::path& fixtures) {
  int failures = 0;
  std::size_t n_bad = 0, n_good = 0;

  const fs::path bad = fixtures / "bad";
  if (fs::exists(bad)) {
    for (const auto& entry : fs::directory_iterator(bad)) {
      if (!entry.is_regular_file() || !lintable_extension(entry.path())) continue;
      ++n_bad;
      SourceFile f = load_file(entry.path(), entry.path().filename().string());
      const std::string virtual_path = directive_value(f.raw, "wf-lint-path");
      f.display_path = virtual_path.empty() ? "src/" + f.display_path : virtual_path;
      const std::set<std::string> expected = expected_rules(f.raw);
      if (expected.empty()) {
        std::cerr << "self-test: " << entry.path().filename().string()
                  << " declares no wf-lint-expect rules\n";
        ++failures;
        continue;
      }
      std::set<std::string> got;
      for (const Finding& finding : lint_file(f)) got.insert(finding.rule);
      for (const std::string& rule : expected)
        if (!got.count(rule)) {
          std::cerr << "self-test: " << entry.path().filename().string()
                    << " expected a [" << rule << "] finding but got none\n";
          ++failures;
        }
      for (const std::string& rule : got)
        if (!expected.count(rule)) {
          std::cerr << "self-test: " << entry.path().filename().string()
                    << " triggered unexpected rule [" << rule << "]\n";
          ++failures;
        }
    }
  }

  const fs::path good = fixtures / "good";
  if (fs::exists(good)) {
    for (const auto& entry : fs::directory_iterator(good)) {
      if (!entry.is_regular_file() || !lintable_extension(entry.path())) continue;
      ++n_good;
      SourceFile f = load_file(entry.path(), entry.path().filename().string());
      const std::string virtual_path = directive_value(f.raw, "wf-lint-path");
      f.display_path = virtual_path.empty() ? "src/" + f.display_path : virtual_path;
      const std::vector<Finding> findings = lint_file(f);
      if (!findings.empty()) {
        std::cerr << "self-test: " << entry.path().filename().string()
                  << " should pass clean but got:\n";
        print_findings(findings);
        failures += static_cast<int>(findings.size());
      }
    }
  }

  if (n_bad == 0) {
    std::cerr << "self-test: no bad fixtures found under " << bad << "\n";
    return 2;
  }
  std::cout << "wf-lint self-test: " << n_bad << " bad + " << n_good << " good fixtures, "
            << (failures == 0 ? "all as expected" : std::to_string(failures) + " mismatch(es)")
            << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  fs::path self_test;
  std::vector<fs::path> explicit_files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--self-test" && i + 1 < argc) {
      self_test = argv[++i];
    } else if (arg == "--list-rules") {
      for (const RuleInfo& rule : kRules)
        std::cout << rule.id << "\n    " << rule.what << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: wf-lint [--root DIR] [--self-test FIXTURES_DIR] [--list-rules] "
                   "[file...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "wf-lint: unknown option " << arg << "\n";
      return 2;
    } else {
      explicit_files.emplace_back(arg);
    }
  }

  if (!self_test.empty()) return run_self_test(self_test);

  std::vector<fs::path> files =
      explicit_files.empty() ? collect_tree(root) : std::move(explicit_files);
  if (files.empty()) {
    std::cerr << "wf-lint: no source files found under " << root << "\n";
    return 2;
  }

  std::vector<Finding> all;
  for (const fs::path& path : files) {
    std::string display = path.generic_string();
    std::error_code ec;
    const fs::path rel = fs::relative(path, root, ec);
    if (!ec && !rel.empty() && rel.generic_string().rfind("..", 0) != 0)
      display = rel.generic_string();
    const SourceFile f = load_file(path, display);
    const std::vector<Finding> findings = lint_file(f);
    all.insert(all.end(), findings.begin(), findings.end());
  }

  print_findings(all);
  std::cout << "wf-lint: " << files.size() << " files, " << all.size() << " finding"
            << (all.size() == 1 ? "" : "s") << "\n";
  return all.empty() ? 0 : 1;
}
