// Property-style invariants: determinism, accounting conservation, and
// fuzzed data-structure behaviour.
#include <gtest/gtest.h>

#include <set>

#include "availsim/fault/injector.hpp"
#include "availsim/harness/experiment.hpp"
#include "availsim/harness/testbed.hpp"
#include "availsim/model/scaling.hpp"
#include "availsim/press/cache.hpp"
#include "availsim/press/directory.hpp"
#include "availsim/sim/node_set.hpp"

namespace availsim {
namespace {

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

struct RunSummary {
  std::uint64_t offered;
  std::uint64_t success;
  std::uint64_t failed;
  std::size_t events;
  bool operator==(const RunSummary&) const = default;
};

RunSummary short_run(harness::ServerConfig config, std::uint64_t seed) {
  harness::TestbedOptions opts = harness::default_testbed_options(config, seed);
  opts.warmup = 60 * sim::kSecond;
  sim::Simulator simulator;
  harness::Testbed tb(simulator, opts);
  fault::FaultInjector injector(simulator, tb, sim::Rng(seed));
  tb.start();
  injector.schedule_fault(80 * sim::kSecond, fault::FaultType::kNodeCrash, 1,
                          60 * sim::kSecond);
  simulator.run_until(200 * sim::kSecond);
  return RunSummary{tb.recorder().total_offered(),
                    tb.recorder().total_success(),
                    tb.recorder().total_failed(), tb.log().size()};
}

TEST(Property, RunsAreBitReproducibleForFixedSeed) {
  const RunSummary a = short_run(harness::ServerConfig::kCoop, 42);
  const RunSummary b = short_run(harness::ServerConfig::kCoop, 42);
  EXPECT_EQ(a, b);
}

TEST(Property, DifferentSeedsGiveDifferentButCloseRuns) {
  const RunSummary a = short_run(harness::ServerConfig::kCoop, 1);
  const RunSummary b = short_run(harness::ServerConfig::kCoop, 2);
  EXPECT_NE(a.offered, b.offered);  // Poisson arrivals differ
  EXPECT_NEAR(static_cast<double>(a.offered),
              static_cast<double>(b.offered), 0.05 * a.offered);
}

class ConfigSweep : public ::testing::TestWithParam<harness::ServerConfig> {};

TEST_P(ConfigSweep, RequestAccountingConserves) {
  const RunSummary s = short_run(GetParam(), 7);
  // Every offered request either succeeded, failed, or is still pending
  // (bounded by the 6 s completion timeout at ~2000 req/s).
  EXPECT_GE(s.offered, s.success + s.failed);
  EXPECT_LE(s.offered - (s.success + s.failed), 20000u);
  EXPECT_GT(s.success, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ConfigSweep,
    ::testing::Values(harness::ServerConfig::kIndep,
                      harness::ServerConfig::kFeXIndep,
                      harness::ServerConfig::kCoop,
                      harness::ServerConfig::kFeX,
                      harness::ServerConfig::kMem,
                      harness::ServerConfig::kQmon,
                      harness::ServerConfig::kMq,
                      harness::ServerConfig::kFme));

// ---------------------------------------------------------------------------
// Hardened-detector and gray-fault runs, audited
// ---------------------------------------------------------------------------

struct AuditedRun {
  RunSummary summary;
  std::size_t violations = 0;
  double availability = 0;
};

AuditedRun audited_short_run(harness::ServerConfig config, std::uint64_t seed,
                             bool hardened, fault::FaultType type,
                             int component) {
  harness::TestbedOptions opts = harness::default_testbed_options(config, seed);
  opts.warmup = 60 * sim::kSecond;
  // The audited invariants are load-independent; a lighter offered load
  // keeps this sweep (3 configs + 4 gray types x 2 detector variants) fast.
  opts.offered_rps = 900.0;
  opts.hardened_detectors = hardened;
  opts.audit = true;
  sim::Simulator simulator;
  harness::Testbed tb(simulator, opts);
  AuditedRun run;
  tb.auditor()->on_violation = [&run](const trace::Violation& v) {
    ++run.violations;
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
  };
  fault::FaultInjector injector(simulator, tb, sim::Rng(seed));
  tb.start();
  injector.schedule_fault(80 * sim::kSecond, type, component,
                          60 * sim::kSecond);
  simulator.run_until(200 * sim::kSecond);
  run.summary = RunSummary{tb.recorder().total_offered(),
                           tb.recorder().total_success(),
                           tb.recorder().total_failed(), tb.log().size()};
  run.availability =
      tb.recorder().availability(opts.warmup, 200 * sim::kSecond);
  return run;
}

TEST(Property, HardenedDetectorRunsConserveAndAuditClean) {
  for (auto config :
       {harness::ServerConfig::kCoop, harness::ServerConfig::kMq,
        harness::ServerConfig::kFme}) {
    const AuditedRun run = audited_short_run(
        config, 11, /*hardened=*/true, fault::FaultType::kNodeCrash, 1);
    EXPECT_EQ(run.violations, 0u) << harness::to_string(config);
    EXPECT_GE(run.summary.offered, run.summary.success + run.summary.failed);
    EXPECT_GT(run.summary.success, 0u);
    EXPECT_GE(run.availability, 0.0);
    EXPECT_LE(run.availability, 1.0);
  }
}

TEST(Property, GrayFaultRunsConserveAndAuditClean) {
  harness::TestbedOptions probe =
      harness::default_testbed_options(harness::ServerConfig::kMq, 1);
  const struct {
    fault::FaultType type;
    int component;
  } cases[] = {
      {fault::FaultType::kLinkLossy, 1},
      {fault::FaultType::kLinkFlap, 2},
      {fault::FaultType::kNodeSlow, 1},
      {fault::FaultType::kDiskSlow, probe.press.disk_count},  // node 1 disk 0
  };
  for (const auto& c : cases) {
    for (bool hardened : {false, true}) {
      const AuditedRun run = audited_short_run(harness::ServerConfig::kMq, 13,
                                               hardened, c.type, c.component);
      EXPECT_EQ(run.violations, 0u)
          << fault::to_string(c.type) << " hardened=" << hardened;
      EXPECT_GE(run.summary.offered,
                run.summary.success + run.summary.failed);
      EXPECT_GT(run.summary.success, 0u);
      EXPECT_GE(run.availability, 0.0);
      EXPECT_LE(run.availability, 1.0);
    }
  }
}

// The model identities (AT <= T0, A in [0,1], stage durations summing to
// the template span) must survive templates *measured* from gray faults on
// hardened detectors, not just the randomly generated ones below.
TEST(Property, MeasuredGrayTemplateKeepsModelIdentities) {
  harness::TestbedOptions opts =
      harness::default_testbed_options(harness::ServerConfig::kMq, 5);
  opts.warmup = 120 * sim::kSecond;
  opts.hardened_detectors = true;
  opts.audit = true;  // default handler: any violation aborts the test
  harness::Phase1Options phase1;
  phase1.t0_window = 30 * sim::kSecond;
  phase1.repair_cap = 60 * sim::kSecond;
  phase1.stabilize_window = 40 * sim::kSecond;
  phase1.warm_window = 60 * sim::kSecond;
  phase1.post_reset = 60 * sim::kSecond;

  harness::Phase1Result r = harness::run_single_fault(
      opts, fault::FaultType::kLinkLossy, 1, phase1);
  EXPECT_GT(r.t0, 0.0);

  double stage_sum = 0;
  for (int s = 0; s < model::kStageCount; ++s) {
    EXPECT_GE(r.tmpl.stages.duration[s], 0.0) << "stage " << s;
    stage_sum += r.tmpl.stages.duration[s];
  }
  EXPECT_NEAR(stage_sum, r.tmpl.stages.total_duration(), 1e-9);

  // Table 1 has no gray rows; graft the gray-fault load's failure rates in
  // before asking the analytic model for availability.
  const auto gray = fault::gray_fault_load(5, opts.press.disk_count);
  const fault::FaultSpec* spec =
      fault::find_spec(gray, fault::FaultType::kLinkLossy);
  ASSERT_NE(spec, nullptr);
  r.tmpl.mttf_seconds = spec->mttf_seconds;
  r.tmpl.components = spec->component_count;

  model::SystemModel m(r.t0, {r.tmpl});
  EXPECT_GE(m.availability(), 0.0);
  EXPECT_LE(m.availability(), 1.0 + 1e-9);
  EXPECT_LE(m.average_throughput(), m.t0() + 1e-6);
}

// ---------------------------------------------------------------------------
// Fuzzed cache / directory invariants
// ---------------------------------------------------------------------------

TEST(Property, LruCacheNeverExceedsCapacityUnderFuzz) {
  sim::Rng rng(99);
  press::LruCache cache(50 * 100, 100);
  std::size_t inserted = 0, evicted = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto f = static_cast<workload::FileId>(rng.uniform_int(0, 199));
    if (rng.bernoulli(0.5)) {
      if (!cache.touch(f)) {
        ++inserted;
        if (cache.insert(f)) ++evicted;
      }
    } else {
      if (cache.insert(f)) ++evicted;
      ++inserted;
    }
    ASSERT_LE(cache.size(), cache.capacity());
  }
  // Conservation: resident = inserted - evicted (inserts of resident files
  // don't count; insert() returns no eviction for them).
  EXPECT_EQ(cache.size(), cache.resident().size());
  EXPECT_GE(inserted, evicted);
}

TEST(Property, DirectoryConsistentUnderFuzz) {
  sim::Rng rng(7);
  press::Directory dir;
  // Model of truth: per-node sets.
  std::vector<std::set<workload::FileId>> truth(4);
  for (int i = 0; i < 20000; ++i) {
    const int node = static_cast<int>(rng.uniform_int(0, 3));
    const auto f = static_cast<workload::FileId>(rng.uniform_int(0, 99));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        dir.node_caches(node, f);
        truth[static_cast<size_t>(node)].insert(f);
        break;
      case 1:
        dir.node_evicts(node, f);
        truth[static_cast<size_t>(node)].erase(f);
        break;
      case 2:
        dir.remove_node(node);
        truth[static_cast<size_t>(node)].clear();
        break;
    }
  }
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ(dir.files_known_for(n), truth[static_cast<size_t>(n)].size());
    for (auto f : truth[static_cast<size_t>(n)]) {
      EXPECT_TRUE(dir.node_caches_file(n, f));
    }
  }
}

TEST(Property, BestServiceNodeAlwaysReturnsCachingCoopMember) {
  sim::Rng rng(13);
  press::Directory dir;
  for (int i = 0; i < 2000; ++i) {
    dir.node_caches(static_cast<int>(rng.uniform_int(0, 5)),
                    static_cast<workload::FileId>(rng.uniform_int(0, 50)));
    dir.set_load(static_cast<int>(rng.uniform_int(0, 5)),
                 static_cast<int>(rng.uniform_int(0, 100)));
  }
  sim::NodeSet coop{0, 2, 4};
  for (workload::FileId f = 0; f <= 50; ++f) {
    auto best = dir.best_service_node(f, coop);
    if (best) {
      EXPECT_TRUE(coop.contains(*best));
      EXPECT_TRUE(dir.node_caches_file(*best, f));
    }
  }
}

// ---------------------------------------------------------------------------
// Model invariants
// ---------------------------------------------------------------------------

model::SystemModel random_model(sim::Rng& rng) {
  std::vector<model::FaultTemplate> faults;
  const double t0 = 1000;
  for (auto type : fault::all_fault_types()) {
    model::FaultTemplate f;
    f.type = type;
    f.mttf_seconds = rng.uniform() * 1e7 + 1e5;
    f.mttr_seconds = rng.uniform() * 3600 + 60;
    f.components = static_cast<int>(rng.uniform_int(1, 8));
    for (int s = 0; s < model::kStageCount; ++s) {
      f.stages.duration[s] = rng.uniform() * 300;
      f.stages.throughput[s] = rng.uniform() * 1200;  // may exceed t0
    }
    faults.push_back(f);
  }
  return model::SystemModel(t0, std::move(faults));
}

TEST(Property, AvailabilityAlwaysInUnitInterval) {
  sim::Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    model::SystemModel m = random_model(rng);
    EXPECT_GE(m.availability(), 0.0);
    EXPECT_LE(m.availability(), 1.0 + 1e-9);
    EXPECT_LE(m.average_throughput(), m.t0() + 1e-6);
  }
}

TEST(Property, BreakdownAlwaysSumsToTotal) {
  sim::Rng rng(37);
  for (int i = 0; i < 200; ++i) {
    model::SystemModel m = random_model(rng);
    double sum = 0;
    for (const auto& [t, u] : m.unavailability_by_fault()) sum += u;
    EXPECT_NEAR(sum, m.unavailability(), 1e-9);
  }
}

TEST(Property, ScalingByOneIsIdentity) {
  sim::Rng rng(41);
  for (int i = 0; i < 50; ++i) {
    model::SystemModel m = random_model(rng);
    model::SystemModel scaled = model::scale_cluster(m, 4, 4);
    EXPECT_NEAR(scaled.unavailability(), m.unavailability(), 1e-9);
    EXPECT_DOUBLE_EQ(scaled.t0(), m.t0());
  }
}

TEST(Property, LongerMttfNeverIncreasesUnavailability) {
  sim::Rng rng(43);
  for (int i = 0; i < 100; ++i) {
    model::SystemModel m = random_model(rng);
    const double before = m.unavailability();
    for (auto& f : m.faults()) f.mttf_seconds *= 10;
    EXPECT_LE(m.unavailability(), before + 1e-12);
  }
}

}  // namespace
}  // namespace availsim
