#pragma once

#include <string>
#include <vector>

#include "availsim/harness/testbed.hpp"
#include "availsim/model/availability_model.hpp"

namespace availsim::harness {

/// Phase-1 measurement knobs. Long repairs are compressed: stage C is
/// stable by construction, so after `repair_cap` of simulated degraded
/// operation the component is repaired and the template's C duration is
/// set analytically from the real MTTR.
struct Phase1Options {
  sim::Time t0_window = 45 * sim::kSecond;
  sim::Time repair_cap = 180 * sim::kSecond;
  sim::Time stabilize_window = 60 * sim::kSecond;
  sim::Time warm_window = 120 * sim::kSecond;
  sim::Time post_reset = 150 * sim::kSecond;
};

struct Phase1Result {
  fault::FaultType type = fault::FaultType::kNodeCrash;
  int component = 0;
  double t0 = 0;  // fault-free throughput measured before injection
  model::FaultTemplate tmpl;
  sim::Time t_inject = 0;
  sim::Time t_repair = 0;
  /// 1-second goodput bins over the whole run (Figure-4-style timelines).
  std::vector<double> series_rps;
  /// Event log of the run (detections, exclusions, operator actions).
  std::vector<Testbed::LogEvent> events;
};

/// Testbed defaults shared by every experiment: the paper's §5 environment
/// with the offered load set to 90% of the 4-node COOP saturation (see
/// bench/calibration and tests/calibration_test).
TestbedOptions default_testbed_options(ServerConfig config,
                                       std::uint64_t seed = 1);

/// Runs one single-fault injection experiment (methodology Phase 1) and
/// fits the 7-stage template.
Phase1Result run_single_fault(const TestbedOptions& options,
                              fault::FaultType type, int component,
                              const Phase1Options& phase1 = {});

/// Measures a fault-free run of the given length after warm-up and returns
/// the mean delivered throughput (saturation/calibration probe).
double measure_fault_free_throughput(const TestbedOptions& options,
                                     sim::Time measure = 60 * sim::kSecond);

/// Which component index Phase 1 injects for each fault type (a
/// representative, non-coordinator node).
int representative_component(const TestbedOptions& options,
                             fault::FaultType type);

/// One configuration's Phase-1 outcome.
struct Characterization {
  /// The Phase-2 analytic model: T0 is the highest T0 of the
  /// configuration's runs, and the templates keep fault-load order.
  model::SystemModel model;
  /// A "[phase1]" header and one line per fault class, for the caller to
  /// print once the campaign has joined.
  std::string progress;
};

/// Runs Phase 1 for every configuration in `configs` as one flat campaign:
/// each (configuration, fault class) pair of fault_load() is one
/// run_single_fault on its representative component, and the runs fan out
/// over up to `jobs` workers (harness/campaign.hpp). Results combine in run
/// order, so the output is identical for every `jobs`. Returns one entry
/// per configuration, in the order given.
std::vector<Characterization> characterize(
    const std::vector<TestbedOptions>& configs, int jobs,
    const Phase1Options& phase1 = {});

}  // namespace availsim::harness
