#pragma once

#include <memory>
#include <string>
#include <vector>

#include "availsim/fault/injector.hpp"
#include "availsim/harness/testbed.hpp"
#include "availsim/sim/simulator.hpp"
#include "availsim/trace/auditor.hpp"
#include "availsim/trace/trace.hpp"
#include "probe.hpp"

namespace availbench {

using namespace availsim;

// One scripted Table-1 fault of a workload. Its onset is a fraction of the
// measurement window; it is repaired after the paper's MTTR, shortened to
// `max_share` of the window when the window is too short to hold it
// (self-check lengths).
struct ScriptedFault {
  fault::FaultType type;
  int component;
  double at_share;
  double mttr_s;
  double max_share;
};

// A benchmark workload: one cluster configuration under open-loop Poisson
// load (4 simulated client hosts, hot/cold popularity over 26,000 files),
// a steady-state gate, and a measurement window with an optional fault
// script. See NOTES.md for why each workload was chosen.
struct WorkloadSpec {
  const char* name;
  harness::ServerConfig config;
  int base_nodes;
  double offered_rps;
  double warmup_s;         // client ramp; the gate starts when it ends
  int gate_slices;         // trend window of the steady-state gate
  int gate_max_slices;     // give up (run fails) after this many
  double window_per_second;  // simulated window seconds per --seconds
  std::vector<ScriptedFault> script;
};

const WorkloadSpec* find_workload(const std::string& name);
const std::vector<WorkloadSpec>& all_workloads();

// One simulated world: the simulator, the testbed wired for the workload's
// configuration, and the fault injector that plays the script.
struct World {
  World(const WorkloadSpec& spec, std::uint64_t seed, bool traced);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const WorkloadSpec& spec;
  sim::Simulator sim;
  std::unique_ptr<harness::Testbed> testbed;
  std::unique_ptr<fault::FaultInjector> injector;
  // Traced worlds only. The benchmark attaches its own tracer and auditor
  // instead of TestbedOptions::audit, whose audit tick is a simulator
  // event: a traced run then executes exactly the untraced run's events,
  // so digests, event counts and allocation counts compare exactly.
  std::unique_ptr<trace::Tracer> tracer;
  std::unique_ptr<trace::Auditor> auditor;
  std::unique_ptr<RecordCounter> records;

  // Runs the simulation to `t`. A traced world feeds the auditor a tick
  // record at every 30 s boundary on the way (its quiescence checks), from
  // outside the event queue.
  void run_until(sim::Time t);

  // True while a scripted fault is active or the cluster has not yet
  // returned to health after its repair.
  bool disturbed() const;
};

// Simulated length of the measurement window for --seconds.
sim::Time window_length(const WorkloadSpec& spec, double seconds);

// Schedules the workload's fault script over [start, start + length).
void schedule_script(World& world, sim::Time start, sim::Time length);

// Least-squares trend test of the steady-state gate: true when the
// series' fitted change across its length is within `tolerance` of its
// mean.
bool flat(const std::vector<double>& series, double tolerance);

}  // namespace availbench
