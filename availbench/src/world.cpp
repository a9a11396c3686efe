#include "world.hpp"

#include <algorithm>
#include <cmath>

#include "availsim/harness/experiment.hpp"

namespace availbench {

namespace {

using fault::FaultType;

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> w;
  // The paper's campaign: FME version (FE + external membership + QMON +
  // FME) on 4 back-ends plus the FE configurations' extra node at the
  // calibrated 2000 req/s, the default 240 s warm-up, then the four Table-1
  // fault classes one at a time, twice over on different nodes, each
  // repaired after the 3-minute MTTR. At full length every fault has a
  // 250 s slot: 10 s lead-in, 180 s fault, 60 s recovery.
  w.push_back({"paper4_faults", harness::ServerConfig::kFme, 4, 2000.0,
               240.0, 20, 120, 2000.0 / 30.0,
               {{FaultType::kNodeCrash, 1, 0.005, 180.0, 0.09},
                {FaultType::kAppHang, 2, 0.130, 180.0, 0.09},
                {FaultType::kScsiTimeout, 3 * 2, 0.255, 180.0, 0.09},
                {FaultType::kLinkDown, 4, 0.380, 180.0, 0.09},
                {FaultType::kNodeCrash, 3, 0.505, 180.0, 0.09},
                {FaultType::kAppHang, 4, 0.630, 180.0, 0.09},
                {FaultType::kScsiTimeout, 1 * 2, 0.755, 180.0, 0.09},
                {FaultType::kLinkDown, 2, 0.880, 180.0, 0.09}}});
  // The request data plane at scale: COOP on 32 back-ends at fig12's
  // 500 req/s per node, fault-free.
  w.push_back({"coop32_steady", harness::ServerConfig::kCoop, 32, 16000.0,
               90.0, 10, 60, 5.0, {}});
  // The HA layers at 8x paper4's fan-out: MQ on 32 back-ends plus the extra
  // node; a node crash repaired into a cold restart and rejoin, then an
  // application hang on another node, also repaired. Runnable, but not in
  // BENCHMARK.json: see NOTES.md.
  w.push_back({"mq32_recovery", harness::ServerConfig::kMq, 32, 16000.0,
               90.0, 10, 60, 6.0,
               {{FaultType::kNodeCrash, 1, 0.03, 30.0, 0.17},
                {FaultType::kAppHang, 2, 0.50, 30.0, 0.17}}});
  return w;
}

// The testbed's audit period (harness/testbed.cpp).
constexpr sim::Time kAuditTick = 30 * sim::kSecond;

// The auditor configuration Testbed::setup_tracing derives for the
// workload's server version from the default PRESS and FME parameters.
trace::AuditorConfig auditor_config(const WorkloadSpec& spec) {
  const press::PressParams p;
  const fme::FmeParams f;
  trace::AuditorConfig cfg;
  if (spec.config == harness::ServerConfig::kCoop ||
      spec.config == harness::ServerConfig::kFeX) {
    cfg.hb_deadline =
        p.heartbeat_tolerance * p.heartbeat_period + p.heartbeat_period / 2;
  }
  cfg.qmon_enabled = spec.config == harness::ServerConfig::kQmon ||
                     spec.config == harness::ServerConfig::kMq ||
                     spec.config == harness::ServerConfig::kFme;
  cfg.reroute_requests = static_cast<std::int64_t>(p.qmon.reroute_requests);
  cfg.fail_requests = static_cast<std::int64_t>(p.qmon.fail_requests);
  cfg.fail_total = static_cast<std::int64_t>(p.qmon.fail_total);
  cfg.fme_confirm = f.confirm;
  cfg.fme_restart_cooldown = f.restart_cooldown;
  return cfg;
}

harness::TestbedOptions testbed_options(const WorkloadSpec& spec,
                                        std::uint64_t seed) {
  harness::TestbedOptions opts =
      harness::default_testbed_options(spec.config, seed);
  opts.base_nodes = spec.base_nodes;
  opts.offered_rps = spec.offered_rps;
  opts.warmup = sim::from_seconds(spec.warmup_s);
  return opts;
}

}  // namespace

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> workloads = make_workloads();
  return workloads;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : all_workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

World::World(const WorkloadSpec& s, std::uint64_t seed, bool traced)
    : spec(s) {
  if (traced) {
    tracer = std::make_unique<trace::Tracer>();
    auditor = std::make_unique<trace::Auditor>(*tracer, auditor_config(spec));
    // Collected in violations() and reported, instead of aborting.
    auditor->on_violation = [](const trace::Violation&) {};
    records = std::make_unique<RecordCounter>(*tracer, auditor.get());
    sim.set_tracer(tracer.get());
  }
  testbed = std::make_unique<harness::Testbed>(sim, testbed_options(spec, seed));
  injector = std::make_unique<fault::FaultInjector>(
      sim, *testbed, sim::Rng(seed ^ 0xB3AC4));
}

World::~World() {
  // The injector and testbed hold references into the simulator, which
  // still points at the tracer; the listeners unregister from the tracer.
  injector.reset();
  testbed.reset();
  sim.set_tracer(nullptr);
  records.reset();
  auditor.reset();
}

void World::run_until(sim::Time t) {
  if (tracer) {
    for (sim::Time tick = (sim.now() / kAuditTick + 1) * kAuditTick; tick <= t;
         tick += kAuditTick) {
      sim.run_until(tick);
      tracer->emit(tick, trace::Category::kHarness, trace::Kind::kAuditTick,
                   -1, 0, 0, 0);
    }
  }
  sim.run_until(t);
}

bool World::disturbed() const {
  return injector->active_faults() > 0 || !testbed->healthy();
}

sim::Time window_length(const WorkloadSpec& spec, double seconds) {
  // Whole simulated seconds, so the window is made of whole 1 s bins.
  return static_cast<sim::Time>(
             std::max(1.0, std::round(seconds * spec.window_per_second))) *
         sim::kSecond;
}

void schedule_script(World& world, sim::Time start, sim::Time length) {
  for (const ScriptedFault& f : world.spec.script) {
    const double len_s = sim::to_seconds(length);
    const sim::Time at =
        start + sim::from_seconds(std::floor(f.at_share * len_s));
    const double mttr = std::min(f.mttr_s, f.max_share * len_s);
    world.injector->schedule_fault(at, f.type, f.component,
                                   sim::from_seconds(mttr));
  }
}

bool flat(const std::vector<double>& series, double tolerance) {
  const double n = static_cast<double>(series.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double x = static_cast<double>(i);
    sx += x;
    sy += series[i];
    sxx += x * x;
    sxy += x * series[i];
  }
  const double mean = sy / n;
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  return mean > 0 && std::abs(slope * n) <= tolerance * mean;
}

}  // namespace availbench
