#pragma once
// availlint rule engine.  Consumes lexed files plus the repo's rules
// config and produces diagnostics.  Built as a library (availlint_lib) so
// tests can drive every rule against in-memory fixtures; the `availlint`
// binary is a thin filesystem walker around it.
//
// Rules enforced (ids are stable; they appear in diagnostics and docs):
//   det-rand            rand/srand/rand_r/drand48/std::random_device
//   det-clock           wall clocks: steady_clock/system_clock/
//                       high_resolution_clock/time(NULL)/clock()/
//                       gettimeofday/clock_gettime/localtime/gmtime
//   det-getenv          getenv outside the allowlist
//   det-thread          std::thread/mutex/atomic/... and their headers
//                       outside the allowlist
//   det-std-function    std::function inside forbid-function paths
//   det-unordered-iter  range-for / iterator loop over an
//                       unordered_{map,set} inside ordered-domain paths,
//                       unless the for's line carries
//                       "availlint: ordered-ok(<reason>)"
//   hot-alloc           heap allocation (new/make_unique/make_shared),
//                       std::function construction (explicit, or an
//                       inline lambda passed to a std::function
//                       parameter or assigned to a std::function field),
//                       or node-based container insertion inside a
//                       function reachable from the hot-path roster,
//                       unless the line carries
//                       "availlint: hot-ok(<reason>)"
//   hot-roster          hot-path roster entry that names no function
//                       (checked when the linted files reach every
//                       hot domain)
//   layer-dep           #include edge not in the declared layer table
//   layer-cycle         cycle in the declared header-layer graph or in
//                       the actual file-level include graph
//   hyg-pragma-once     header without #pragma once
//   hyg-using-namespace using namespace at header scope
//   hyg-iostream        std::cout/cerr/clog outside the allowlist

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lexer.hpp"
#include "rules.hpp"
#include "structure.hpp"

namespace availlint {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  std::string str() const {
    return file + ":" + std::to_string(line) + ": " + rule + ": " + message;
  }
};

// A would-be finding silenced by an in-source suppression annotation or a
// rules-file exemption.  Tracked so --format=json can report every
// suppression site with its reason (the lint ledger stays auditable).
struct SuppressedFinding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string reason;
};

class Engine {
 public:
  explicit Engine(Config cfg) : cfg_(std::move(cfg)) {}

  // Registers a file for linting.  `path` must be repo-relative with '/'
  // separators (e.g. "src/availsim/press/press_node.cpp") — it drives
  // layer lookup and allowlist matching.
  void add_file(const std::string& path, const std::string& text);

  // Runs all per-file and cross-file checks; diagnostics are sorted by
  // (file, line, rule) so output is deterministic.
  std::vector<Diagnostic> run();

  // Suppressions honored during the last run(), sorted like diagnostics.
  const std::vector<SuppressedFinding>& suppressions() const {
    return suppressed_;
  }

  // (pass name, wall-clock milliseconds) for each pass of the last run(),
  // in execution order.  Measurement-only; never affects findings.
  const std::vector<std::pair<std::string, double>>& pass_timings() const {
    return timings_;
  }

 private:
  struct FileEntry {
    std::string path;
    LexedFile lex;
    FileStructure structure;
    bool is_header = false;
  };

  void check_banned_tokens(const FileEntry& f);
  void check_unordered_iteration(const FileEntry& f);
  void check_layering(const FileEntry& f);
  void check_hygiene(const FileEntry& f);
  void check_layer_table_acyclic();
  void check_include_cycles();
  void check_hot_alloc();

  void diag(const std::string& file, int line, const std::string& rule,
            const std::string& message);

  // Checks `line` (and, NOLINTNEXTLINE-style, the line above) for an
  // "availlint: <tag>(<reason>)" annotation.  With a non-blank reason the
  // suppression is recorded and true is returned; with a blank reason a
  // must-give-a-reason diagnostic is emitted under `rule` and true is
  // returned (the original finding stays silenced either way).
  bool suppressed(const FileEntry& f, int line, const std::string& tag,
                  const std::string& rule);

  // Identifiers declared in `f` (and, for a .cpp, its same-stem header)
  // with an unordered_{map,set} type: variables and functions returning
  // unordered containers.
  void collect_unordered(const LexedFile& lex, std::map<std::string, int>* vars,
                         std::map<std::string, int>* fns) const;

  Config cfg_;
  std::vector<FileEntry> files_;
  std::map<std::string, std::size_t> by_path_;
  std::vector<Diagnostic> diags_;
  std::vector<SuppressedFinding> suppressed_;
  std::vector<std::pair<std::string, double>> timings_;
};

}  // namespace availlint
