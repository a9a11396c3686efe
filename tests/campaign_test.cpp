#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "availsim/fault/injector.hpp"
#include "availsim/harness/campaign.hpp"
#include "availsim/harness/experiment.hpp"
#include "availsim/harness/testbed.hpp"
#include "availsim/sim/rng.hpp"
#include "availsim/sim/simulator.hpp"
#include "availsim/workload/recorder.hpp"

namespace availsim::harness {
namespace {

TEST(ResolveJobs, ExplicitRequestWins) {
  EXPECT_EQ(resolve_jobs(3), 3);
  EXPECT_EQ(resolve_jobs(1), 1);
}

TEST(ResolveJobs, AutoIsAtLeastOne) { EXPECT_GE(resolve_jobs(0), 1); }

// Runs parse_jobs_flag over a synthetic argv; `remaining` receives the
// compacted argv so positional-argument handling can be asserted.
int parse(std::vector<std::string> args, int def,
          std::vector<std::string>* remaining = nullptr) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(args.size());
  const int jobs = parse_jobs_flag(argc, argv.data(), def);
  if (remaining) {
    remaining->clear();
    for (int i = 0; i < argc; ++i) remaining->push_back(argv[static_cast<std::size_t>(i)]);
  }
  return jobs;
}

TEST(ParseJobsFlag, SeparateValueFormCompactsArgv) {
  std::vector<std::string> rest;
  EXPECT_EQ(parse({"prog", "--jobs", "4", "1800"}, 1, &rest), 4);
  EXPECT_EQ(rest, (std::vector<std::string>{"prog", "1800"}));
}

TEST(ParseJobsFlag, EqualsForm) { EXPECT_EQ(parse({"prog", "--jobs=2"}, 1), 2); }

TEST(ParseJobsFlag, ShortForm) { EXPECT_EQ(parse({"prog", "-j8"}, 1), 8); }

TEST(ParseJobsFlag, AbsentFlagUsesDefault) {
  std::vector<std::string> rest;
  EXPECT_EQ(parse({"prog", "1800", "7"}, 1, &rest), 1);
  EXPECT_EQ(rest, (std::vector<std::string>{"prog", "1800", "7"}));
}

TEST(RunReplicas, ReturnsReplicaOrderEvenWhenCompletionOrderInverts) {
  // Early replicas sleep longest, so with parallel workers the later
  // indices finish first; results must still come back in index order.
  auto results = run_replicas(4, 8, [](int i) {
    std::this_thread::sleep_for(std::chrono::milliseconds((8 - i) * 3));
    return i * 10;
  });
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i * 10);
  }
}

TEST(RunReplicas, WideJobsAgreeWithSerial) {
  auto serial = run_replicas(1, 5, [](int i) { return i * i; });
  auto wide = run_replicas(16, 5, [](int i) { return i * i; });
  EXPECT_EQ(serial, wide);
}

TEST(RunReplicas, LowestIndexExceptionWinsDeterministically) {
  // Replica 5 fails first in wall-clock time; the rethrown exception must
  // still be replica 2's (lowest failing index), every time.
  for (int trial = 0; trial < 3; ++trial) {
    try {
      run_replicas(4, 8, [](int i) -> int {
        if (i == 2) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("replica 2");
        }
        if (i == 5) throw std::runtime_error("replica 5");
        return i;
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "replica 2");
    }
  }
}

// One fig7-style replica: a private COOP testbed world, one node-crash
// injection, the result serialized exactly as a bench row would be.
std::string mini_campaign(int jobs) {
  auto rows = run_replicas(jobs, 4, [](int i) {
    TestbedOptions opts = default_testbed_options(
        ServerConfig::kCoop, /*seed=*/static_cast<std::uint64_t>(i) + 1);
    opts.warmup = 10 * sim::kSecond;
    sim::Simulator sim;
    Testbed tb(sim, opts);
    fault::FaultInjector injector(sim, tb, sim::Rng(opts.seed ^ 0xF00));
    tb.start();
    sim.run_until(opts.warmup);
    injector.schedule_fault(opts.warmup + 2 * sim::kSecond,
                            fault::FaultType::kNodeCrash, 1,
                            /*duration=*/10 * sim::kSecond);
    const sim::Time end = opts.warmup + 30 * sim::kSecond;
    sim.run_until(end);
    char buf[160];
    std::snprintf(
        buf, sizeof(buf),
        "{\"replica\": %d, \"availability\": %.12f, \"events\": %llu}\n", i,
        tb.recorder().availability(opts.warmup, end),
        static_cast<unsigned long long>(sim.events_processed()));
    return std::string(buf);
  });
  std::string all;
  for (const auto& r : rows) all += r;
  return all;
}

// The acceptance criterion of the parallel runner: a --jobs 4 campaign is
// byte-identical to --jobs 1 over a fig7-style mini-campaign.
TEST(CampaignEquivalence, Jobs4MatchesJobs1ByteForByte) {
  const std::string serial = mini_campaign(1);
  const std::string parallel = mini_campaign(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"replica\": 0"), std::string::npos);
  EXPECT_NE(serial.find("\"replica\": 3"), std::string::npos);
}

// Phase 1 cut short (a 30 s warm-up at 400 req/s, every window a few
// seconds) so fifteen fault runs, twice over, stay cheap under TSan.
TestbedOptions short_phase1_options(ServerConfig config) {
  TestbedOptions opts = default_testbed_options(config);
  opts.offered_rps = 400;
  opts.warmup = 30 * sim::kSecond;
  opts.operator_response = 30 * sim::kSecond;
  return opts;
}

Phase1Options short_phase1() {
  Phase1Options p;
  p.t0_window = 10 * sim::kSecond;
  p.repair_cap = 20 * sim::kSecond;
  p.stabilize_window = 10 * sim::kSecond;
  p.warm_window = 10 * sim::kSecond;
  p.post_reset = 10 * sim::kSecond;
  return p;
}

// Phase 1 run serially: a probe Testbed's fault load, one run per fault
// class on its representative component, T0 the highest of the runs'.
model::SystemModel serial_characterize(const TestbedOptions& options,
                                       const Phase1Options& phase1) {
  sim::Simulator probe_sim;
  Testbed probe(probe_sim, options);
  std::vector<model::FaultTemplate> faults;
  double t0 = 0;
  for (const auto& spec : probe.fault_load()) {
    const Phase1Result r = run_single_fault(
        options, spec.type, representative_component(options, spec.type),
        phase1);
    t0 = std::max(t0, r.t0);
    faults.push_back(r.tmpl);
  }
  return model::SystemModel(t0, std::move(faults));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The flat Phase-1 campaign on 4 workers (COOP without a front-end, FE-X
// with one: 7 + 8 runs) reproduces the serial characterization bit for
// bit, and each header counts the runs its configuration got.
TEST(CampaignEquivalence, FlatPhase1MatchesSerialCharacterization) {
  const std::vector<TestbedOptions> configs = {
      short_phase1_options(ServerConfig::kCoop),
      short_phase1_options(ServerConfig::kFeX)};
  const std::size_t runs[] = {7, 8};
  const Phase1Options phase1 = short_phase1();
  const std::vector<Characterization> flat =
      characterize(configs, /*jobs=*/4, phase1);
  ASSERT_EQ(flat.size(), configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const std::string name = to_string(configs[c].config);
    SCOPED_TRACE(name);
    const model::SystemModel ref = serial_characterize(configs[c], phase1);
    const model::SystemModel& got = flat[c].model;
    EXPECT_GT(ref.t0(), 0.0);
    EXPECT_EQ(bits(got.t0()), bits(ref.t0()));
    ASSERT_EQ(ref.faults().size(), runs[c]);
    ASSERT_EQ(got.faults().size(), runs[c]);
    for (std::size_t i = 0; i < runs[c]; ++i) {
      const model::FaultTemplate& g = got.faults()[i];
      const model::FaultTemplate& r = ref.faults()[i];
      EXPECT_EQ(g.type, r.type) << "fault " << i;
      EXPECT_EQ(bits(g.mttf_seconds), bits(r.mttf_seconds)) << "fault " << i;
      EXPECT_EQ(bits(g.mttr_seconds), bits(r.mttr_seconds)) << "fault " << i;
      EXPECT_EQ(g.components, r.components) << "fault " << i;
      for (int s = 0; s < model::kStageCount; ++s) {
        EXPECT_EQ(bits(g.stages.duration[s]), bits(r.stages.duration[s]))
            << "fault " << i << " stage " << s;
        EXPECT_EQ(bits(g.stages.throughput[s]), bits(r.stages.throughput[s]))
            << "fault " << i << " stage " << s;
      }
    }
    const std::string& progress = flat[c].progress;
    EXPECT_EQ(progress.rfind("[phase1] characterizing " + name + " (" +
                                 std::to_string(runs[c]) +
                                 " single-fault campaigns)...\n",
                             0),
              0u);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(progress.begin(), progress.end(), '\n')),
              runs[c] + 1);
  }
}

TEST(BenchJsonWriter, PreservesInsertionOrderAndTypes) {
  BenchJson b;
  b.add("bench", std::string("x"));
  b.add("count", 3);
  b.add("rate", 0.5);
  b.add("events", static_cast<std::uint64_t>(7));
  const std::string s = b.str();
  EXPECT_LT(s.find("\"bench\""), s.find("\"count\""));
  EXPECT_LT(s.find("\"count\""), s.find("\"rate\""));
  EXPECT_NE(s.find("\"bench\": \"x\""), std::string::npos);
  EXPECT_NE(s.find("\"events\": 7"), std::string::npos);
}

}  // namespace
}  // namespace availsim::harness
