// Drives the availlint rule engine (tools/availlint) as a library against
// the fixtures in tests/lint_fixtures/.  Every rule is exercised in both
// directions: the violation fires at the expected file:line, and the
// clean / allowlisted / suppressed variant stays silent.
//
// Fixtures carry a .fixture suffix so the `lint` build target (which
// scans tests/) never mistakes them for real sources.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine.hpp"
#include "rules.hpp"

#ifndef AVAILSIM_LINT_FIXTURE_DIR
#error "availlint_test needs AVAILSIM_LINT_FIXTURE_DIR (set in tests/CMakeLists.txt)"
#endif
#ifndef AVAILSIM_LINT_RULES_FILE
#error "availlint_test needs AVAILSIM_LINT_RULES_FILE (set in tests/CMakeLists.txt)"
#endif

namespace {

using availlint::Config;
using availlint::Diagnostic;
using availlint::Engine;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string fixture(const std::string& name) {
  return read_file(std::string(AVAILSIM_LINT_FIXTURE_DIR) + "/" + name);
}

// The shipped repo config: fixture paths below are chosen to land in its
// real layers and allowlists, so this also validates availlint.rules.
Config repo_config() {
  Config cfg;
  std::string error;
  EXPECT_TRUE(availlint::parse_rules(read_file(AVAILSIM_LINT_RULES_FILE),
                                     &cfg, &error))
      << error;
  return cfg;
}

int count_rule(const std::vector<Diagnostic>& diags, const std::string& rule,
               const std::string& file = "", int line = 0) {
  int n = 0;
  for (const Diagnostic& d : diags) {
    if (d.rule != rule) continue;
    if (!file.empty() && d.file != file) continue;
    if (line != 0 && d.line != line) continue;
    ++n;
  }
  return n;
}

std::string dump(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& d : diags) out += d.str() + "\n";
  return out;
}

std::vector<Diagnostic> lint_one(const std::string& path,
                                 const std::string& fixture_name) {
  Engine engine(repo_config());
  engine.add_file(path, fixture(fixture_name));
  return engine.run();
}

// ---------------------------------------------------------------------------
// Clean pass
// ---------------------------------------------------------------------------

TEST(AvailLint, CleanFileProducesNoDiagnostics) {
  const auto diags =
      lint_one("src/availsim/press/clean.cpp", "clean.cpp.fixture");
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

TEST(AvailLint, ShippedRulesFileParsesAndTableIsAcyclic) {
  Engine engine(repo_config());
  const auto diags = engine.run();  // no files: only the layer-table check
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

// ---------------------------------------------------------------------------
// Determinism rules
// ---------------------------------------------------------------------------

TEST(AvailLint, RandSourcesAreFlagged) {
  const auto diags =
      lint_one("src/availsim/press/entropy.cpp", "det_rand_bad.cpp.fixture");
  EXPECT_EQ(count_rule(diags, "det-rand"), 3) << dump(diags);
  EXPECT_EQ(count_rule(diags, "det-rand", "src/availsim/press/entropy.cpp", 6),
            1)
      << dump(diags);
}

TEST(AvailLint, WallClocksAreFlagged) {
  const auto diags =
      lint_one("src/availsim/qmon/wall.cpp", "det_clock_bad.cpp.fixture");
  EXPECT_EQ(count_rule(diags, "det-clock"), 3) << dump(diags);
  EXPECT_EQ(count_rule(diags, "det-clock", "src/availsim/qmon/wall.cpp", 8), 1)
      << dump(diags);
}

TEST(AvailLint, WallClockAllowedForCampaignWallTimer) {
  const auto diags = lint_one("src/availsim/harness/campaign.hpp",
                              "det_clock_bad.cpp.fixture");
  EXPECT_EQ(count_rule(diags, "det-clock"), 0) << dump(diags);
}

TEST(AvailLint, GetenvFlaggedInLibraryAllowedInHarnessAndTests) {
  const auto bad =
      lint_one("src/availsim/fme/env.cpp", "det_getenv_bad.cpp.fixture");
  EXPECT_EQ(count_rule(bad, "det-getenv", "src/availsim/fme/env.cpp", 5), 1)
      << dump(bad);
  const auto harness = lint_one("src/availsim/harness/env.cpp",
                                "det_getenv_bad.cpp.fixture");
  EXPECT_EQ(count_rule(harness, "det-getenv"), 0) << dump(harness);
  const auto tests =
      lint_one("tests/env_test.cpp", "det_getenv_bad.cpp.fixture");
  EXPECT_EQ(count_rule(tests, "det-getenv"), 0) << dump(tests);
}

TEST(AvailLint, ThreadPrimitivesFlaggedOutsideCampaign) {
  const auto diags =
      lint_one("src/availsim/net/locks.cpp", "det_thread_bad.cpp.fixture");
  // <mutex>, <thread>, std::mutex, std::lock_guard + std::mutex, std::thread.
  EXPECT_EQ(count_rule(diags, "det-thread"), 6) << dump(diags);
  EXPECT_EQ(count_rule(diags, "det-thread", "src/availsim/net/locks.cpp", 2),
            1)
      << dump(diags);
  const auto campaign = lint_one("src/availsim/harness/campaign.cpp",
                                 "det_thread_bad.cpp.fixture");
  EXPECT_EQ(count_rule(campaign, "det-thread"), 0) << dump(campaign);
}

TEST(AvailLint, StdFunctionFlaggedOnlyInSim) {
  const auto in_sim = lint_one("src/availsim/sim/callbacks.cpp",
                               "det_std_function_bad.cpp.fixture");
  EXPECT_EQ(
      count_rule(in_sim, "det-std-function", "src/availsim/sim/callbacks.cpp", 5),
      1)
      << dump(in_sim);
  const auto in_press = lint_one("src/availsim/press/callbacks.cpp",
                                 "det_std_function_bad.cpp.fixture");
  EXPECT_EQ(count_rule(in_press, "det-std-function"), 0) << dump(in_press);
}

TEST(AvailLint, StdFunctionFlaggedInDisk) {
  // Disk completions are sim::EventFn; the shipped rules keep
  // std::function out of disk/ as well.
  const auto diags = lint_one("src/availsim/disk/callbacks.cpp",
                              "det_std_function_bad.cpp.fixture");
  EXPECT_EQ(
      count_rule(diags, "det-std-function", "src/availsim/disk/callbacks.cpp", 5),
      1)
      << dump(diags);
}

// ---------------------------------------------------------------------------
// Unordered iteration
// ---------------------------------------------------------------------------

TEST(AvailLint, UnorderedIterationFlaggedInOrderedDomain) {
  const auto diags = lint_one("src/availsim/press/table.cpp",
                              "unordered_iter_bad.cpp.fixture");
  // Range-for over map member, range-for over set member, iterator loop,
  // range-for over an unordered-returning accessor.
  EXPECT_EQ(count_rule(diags, "det-unordered-iter"), 4) << dump(diags);
  EXPECT_EQ(count_rule(diags, "det-unordered-iter",
                       "src/availsim/press/table.cpp", 13),
            1)
      << dump(diags);
  EXPECT_EQ(count_rule(diags, "det-unordered-iter",
                       "src/availsim/press/table.cpp", 17),
            1)
      << dump(diags);
}

TEST(AvailLint, UnorderedIterationOutsideOrderedDomainIsFine) {
  const auto diags =
      lint_one("tools/availlint/table.cpp", "unordered_iter_bad.cpp.fixture");
  EXPECT_EQ(count_rule(diags, "det-unordered-iter"), 0) << dump(diags);
}

TEST(AvailLint, MultiContainerIterationFlaggedInOrderedDomain) {
  // unordered_multimap / unordered_multiset iterate in hash order exactly
  // like their single-key siblings and must be flagged the same way.
  const auto diags = lint_one("src/availsim/press/index.cpp",
                              "unordered_multi_iter_bad.cpp.fixture");
  // Range-for over multimap member, range-for over multiset member,
  // iterator loop, range-for over an unordered-returning accessor.
  EXPECT_EQ(count_rule(diags, "det-unordered-iter"), 4) << dump(diags);
  EXPECT_EQ(count_rule(diags, "det-unordered-iter",
                       "src/availsim/press/index.cpp", 14),
            1)
      << dump(diags);
  EXPECT_EQ(count_rule(diags, "det-unordered-iter",
                       "src/availsim/press/index.cpp", 18),
            1)
      << dump(diags);
}

TEST(AvailLint, MultiContainerIterationOutsideOrderedDomainIsFine) {
  const auto diags = lint_one("tools/availlint/index.cpp",
                              "unordered_multi_iter_bad.cpp.fixture");
  EXPECT_EQ(count_rule(diags, "det-unordered-iter"), 0) << dump(diags);
}

TEST(AvailLint, OrderedOkSuppressionHonoredButNeedsReason) {
  const auto diags = lint_one("src/availsim/press/counters.cpp",
                              "unordered_iter_suppressed.cpp.fixture");
  // Two reasoned suppressions pass; the empty-reason one is a finding.
  EXPECT_EQ(count_rule(diags, "det-unordered-iter"), 1) << dump(diags);
  EXPECT_EQ(count_rule(diags, "det-unordered-iter",
                       "src/availsim/press/counters.cpp", 16),
            1)
      << dump(diags);
}

TEST(AvailLint, MemberDeclaredInPairedHeaderIsTracked) {
  // The .cpp iterates a member whose unordered declaration lives only in
  // the same-stem header, as with every real subsystem in this repo.
  Engine engine(repo_config());
  engine.add_file("src/availsim/qmon/split.hpp",
                  "#pragma once\n"
                  "#include <unordered_map>\n"
                  "struct S { std::unordered_map<int, int> pending_; "
                  "int drain(); };\n");
  engine.add_file("src/availsim/qmon/split.cpp",
                  "#include \"availsim/qmon/split.hpp\"\n"
                  "int S::drain() {\n"
                  "  int n = 0;\n"
                  "  for (const auto& [k, v] : pending_) n += v;\n"
                  "  return n;\n"
                  "}\n");
  const auto diags = engine.run();
  EXPECT_EQ(count_rule(diags, "det-unordered-iter",
                       "src/availsim/qmon/split.cpp", 4),
            1)
      << dump(diags);
}

// ---------------------------------------------------------------------------
// Layering
// ---------------------------------------------------------------------------

TEST(AvailLint, UndeclaredLayerEdgeIsFlagged) {
  const auto diags =
      lint_one("src/availsim/sim/never.cpp", "layer_dep_bad.cpp.fixture");
  EXPECT_EQ(count_rule(diags, "layer-dep", "src/availsim/sim/never.cpp", 3), 1)
      << dump(diags);
}

TEST(AvailLint, SrcOnlyEdgeAllowsSourcesButNotHeaders) {
  const auto header = lint_one("src/availsim/net/tracey.hpp",
                               "layer_srconly_bad.hpp.fixture");
  EXPECT_EQ(count_rule(header, "layer-dep", "src/availsim/net/tracey.hpp", 4),
            1)
      << dump(header);
  const auto source = lint_one("src/availsim/net/tracey.cpp",
                               "layer_srconly_bad.hpp.fixture");
  EXPECT_EQ(count_rule(source, "layer-dep"), 0) << dump(source);
}

TEST(AvailLint, IncludeCycleIsDetected) {
  Engine engine(repo_config());
  engine.add_file("src/availsim/sim/layer_cycle_a.hpp",
                  fixture("layer_cycle_a.hpp.fixture"));
  engine.add_file("src/availsim/sim/layer_cycle_b.hpp",
                  fixture("layer_cycle_b.hpp.fixture"));
  const auto diags = engine.run();
  EXPECT_EQ(count_rule(diags, "layer-cycle"), 1) << dump(diags);
}

TEST(AvailLint, DeclaredLayerTableCycleIsDetected) {
  Config cfg;
  std::string error;
  ASSERT_TRUE(availlint::parse_rules("layer a src/a\n"
                                     "layer b src/b\n"
                                     "dep a b\n"
                                     "dep b a\n",
                                     &cfg, &error))
      << error;
  Engine engine(cfg);
  const auto diags = engine.run();
  EXPECT_EQ(count_rule(diags, "layer-cycle"), 1) << dump(diags);
}

TEST(AvailLint, SrcOnlyEdgesDoNotCountTowardTableCycles) {
  // sim -> trace is src-only in the shipped rules; together with
  // trace -> sim it must NOT read as a header-graph cycle.
  Config cfg;
  std::string error;
  ASSERT_TRUE(availlint::parse_rules("layer a src/a\n"
                                     "layer b src/b\n"
                                     "dep a b\n"
                                     "dep b a src-only\n",
                                     &cfg, &error))
      << error;
  Engine engine(cfg);
  const auto diags = engine.run();
  EXPECT_EQ(count_rule(diags, "layer-cycle"), 0) << dump(diags);
}

// ---------------------------------------------------------------------------
// Hygiene
// ---------------------------------------------------------------------------

TEST(AvailLint, HeaderHygieneRulesFire) {
  const auto diags = lint_one("src/availsim/press/bad_header.hpp",
                              "hyg_header_bad.hpp.fixture");
  EXPECT_EQ(count_rule(diags, "hyg-pragma-once"), 1) << dump(diags);
  EXPECT_EQ(count_rule(diags, "hyg-using-namespace",
                       "src/availsim/press/bad_header.hpp", 5),
            1)
      << dump(diags);
  EXPECT_EQ(count_rule(diags, "hyg-iostream"), 2) << dump(diags);
}

TEST(AvailLint, IostreamAllowedInHarnessBenchTools) {
  for (const char* path :
       {"src/availsim/harness/report_main.cpp", "bench/fig_x.cpp",
        "tools/availlint/main.cpp", "examples/demo.cpp"}) {
    const auto diags = lint_one(path, "hyg_header_bad.hpp.fixture");
    EXPECT_EQ(count_rule(diags, "hyg-iostream"), 0)
        << path << "\n"
        << dump(diags);
  }
}

// ---------------------------------------------------------------------------
// Hot-path allocation lint (hot-alloc)
// ---------------------------------------------------------------------------

constexpr const char* kPumpCpp = "src/availsim/press/pump.cpp";

// Applies a single-line mutation: replaces `from` (exactly once) with `to`.
std::string mutate(std::string text, const std::string& from,
                   const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "mutation anchor missing: " << from;
  EXPECT_EQ(text.find(from, at + 1), std::string::npos)
      << "mutation anchor ambiguous: " << from;
  text.replace(at, from.size(), to);
  return text;
}

TEST(AvailLintHot, ReachableAllocationsFlaggedColdAndPlacementSilent) {
  const auto diags = lint_one(kPumpCpp, "hot_alloc_bad.cpp.fixture");
  // new in the helper (reachable via pump_queue), make_unique in
  // pump_queue, operator[] and emplace on the node-based map in route.
  EXPECT_EQ(count_rule(diags, "hot-alloc"), 4) << dump(diags);
  // cold_setup's make_unique (not reachable) and the placement new in
  // pump_queue (no heap) stay silent: exactly one make_unique finding.
  int make_unique_findings = 0;
  for (const Diagnostic& d : diags) {
    if (d.message.find("make_unique") != std::string::npos) {
      ++make_unique_findings;
    }
  }
  EXPECT_EQ(make_unique_findings, 1) << dump(diags);
}

TEST(AvailLintHot, HotOkSuppressesWithReasonAndLedgers) {
  Engine engine(repo_config());
  engine.add_file(kPumpCpp,
                  mutate(fixture("hot_alloc_bad.cpp.fixture"),
                         "  auto q = std::make_unique<int>(3);",
                         "  auto q = std::make_unique<int>(3);  // availlint: "
                         "hot-ok(pooled upstream)"));
  const auto diags = engine.run();
  EXPECT_EQ(count_rule(diags, "hot-alloc"), 3) << dump(diags);
  bool ledgered = false;
  for (const auto& s : engine.suppressions()) {
    if (s.rule == "hot-alloc" && s.reason == "pooled upstream") ledgered = true;
  }
  EXPECT_TRUE(ledgered);
}

TEST(AvailLintHot, BlankHotOkReasonIsRejected) {
  const auto diags = lint_one(
      kPumpCpp, "hot_alloc_bad.cpp.fixture");
  Engine engine(repo_config());
  engine.add_file(kPumpCpp,
                  mutate(fixture("hot_alloc_bad.cpp.fixture"),
                         "  auto q = std::make_unique<int>(3);",
                         "  auto q = std::make_unique<int>(3);  // availlint: "
                         "hot-ok()"));
  const auto blank = engine.run();
  // The finding count does not drop: the blank suppression itself fails.
  EXPECT_EQ(count_rule(blank, "hot-alloc"), count_rule(diags, "hot-alloc"))
      << dump(blank);
  bool reason_diag = false;
  for (const Diagnostic& d : blank) {
    if (d.message.find("must give a reason") != std::string::npos) {
      reason_diag = true;
    }
  }
  EXPECT_TRUE(reason_diag) << dump(blank);
}

TEST(AvailLintHot, OutsideHotDomainIsSilent) {
  const auto diags =
      lint_one("src/availsim/model/pump.cpp", "hot_alloc_bad.cpp.fixture");
  EXPECT_EQ(count_rule(diags, "hot-alloc"), 0) << dump(diags);
}

TEST(AvailLintHot, LambdaToStdFunctionConversionsFlagged) {
  const auto diags = lint_one(kPumpCpp, "hot_alloc_callable.cpp.fixture");
  // pump_queue: a lambda assigned to a std::function field through a
  // member access and directly, and lambdas passed to a std::function
  // parameter and to a parameter of an alias type. route's template /
  // EventFn parameters, named closure and plain fields stay silent, and
  // cold_setup is unreachable.
  EXPECT_EQ(count_rule(diags, "hot-alloc"), 4) << dump(diags);
  for (const char* what :
       {"field 'on_refused'", "field 'hook_'", "parameter 2 of 'block_main'",
        "parameter 2 of 'submit'"}) {
    int hits = 0;
    for (const Diagnostic& d : diags) {
      if (d.message.find(what) != std::string::npos &&
          d.message.find("'PressNode::pump_queue'") != std::string::npos) {
        ++hits;
      }
    }
    EXPECT_EQ(hits, 1) << what << "\n" << dump(diags);
  }
}

TEST(AvailLintHot, LambdaConversionHotOkSuppresses) {
  Engine engine(repo_config());
  engine.add_file(
      kPumpCpp,
      mutate(fixture("hot_alloc_callable.cpp.fixture"),
             "  block_main(\"send_queue\", [this] { return counter_ > 0; });",
             "  // availlint: hot-ok(block transition only)\n"
             "  block_main(\"send_queue\", [this] { return counter_ > 0; });"));
  const auto diags = engine.run();
  EXPECT_EQ(count_rule(diags, "hot-alloc"), 3) << dump(diags);
}

TEST(AvailLintHot, RosterEntryThatNamesNoFunctionIsReported) {
  // A renamed root (here on_http, which the fixture does not define) would
  // silently drop its call tree from hot-alloc.
  Config cfg = repo_config();
  cfg.hot_domains = {"src/availsim/press/"};
  cfg.hot_paths = {"PressNode::pump_queue", "PressNode::on_http"};
  Engine engine(cfg);
  engine.add_file(kPumpCpp, fixture("hot_alloc_bad.cpp.fixture"));
  const auto diags = engine.run();
  ASSERT_EQ(count_rule(diags, "hot-roster", "availlint.rules"), 1)
      << dump(diags);
  for (const Diagnostic& d : diags) {
    if (d.rule != "hot-roster") continue;
    EXPECT_NE(d.message.find("'PressNode::on_http'"), std::string::npos)
        << d.str();
  }
  // The resolved root still drives the check.
  EXPECT_EQ(count_rule(diags, "hot-alloc"), 2) << dump(diags);

  // Files that miss a hot domain cannot tell a missing root from one that
  // was not linted: no finding.
  cfg.hot_domains.push_back("src/availsim/qmon/");
  Engine partial(cfg);
  partial.add_file(kPumpCpp, fixture("hot_alloc_bad.cpp.fixture"));
  EXPECT_EQ(count_rule(partial.run(), "hot-roster"), 0);
}

TEST(AvailLintHot, PassTimingsCoverEveryPass) {
  Engine engine(repo_config());
  engine.add_file(kPumpCpp, fixture("hot_alloc_bad.cpp.fixture"));
  (void)engine.run();
  std::vector<std::string> names;
  for (const auto& [name, ms] : engine.pass_timings()) {
    names.push_back(name);
    EXPECT_GE(ms, 0.0);
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "layer-table", "banned-tokens", "unordered-iter",
                       "layering", "hygiene", "hot-alloc", "include-cycles"}));
}

// ---------------------------------------------------------------------------
// Config parser
// ---------------------------------------------------------------------------

TEST(AvailLint, RulesParserRejectsGarbage) {
  Config cfg;
  std::string error;
  EXPECT_FALSE(availlint::parse_rules("frobnicate everything\n", &cfg, &error));
  EXPECT_NE(error.find("unknown directive"), std::string::npos) << error;

  Config cfg2;
  EXPECT_FALSE(
      availlint::parse_rules("layer a src/a\ndep a ghost\n", &cfg2, &error));
  EXPECT_NE(error.find("undeclared layer"), std::string::npos) << error;

  Config cfg3;
  EXPECT_FALSE(
      availlint::parse_rules("allow wifi src/a\n", &cfg3, &error));
  EXPECT_NE(error.find("unknown allow key"), std::string::npos) << error;
}

TEST(AvailLint, CommentsAndStringsNeverTrigger) {
  // The clean fixture is stuffed with banned tokens inside comments,
  // string literals, raw strings, and char literals.
  const auto diags =
      lint_one("src/availsim/sim/strings.cpp", "clean.cpp.fixture");
  EXPECT_EQ(count_rule(diags, "det-rand"), 0) << dump(diags);
  EXPECT_EQ(count_rule(diags, "det-clock"), 0) << dump(diags);
  EXPECT_EQ(count_rule(diags, "det-getenv"), 0) << dump(diags);
  EXPECT_EQ(count_rule(diags, "det-thread"), 0) << dump(diags);
}

}  // namespace
