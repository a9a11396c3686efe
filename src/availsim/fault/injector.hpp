#pragma once

#include <functional>
#include <string>
#include <vector>

#include "availsim/fault/fault.hpp"
#include "availsim/sim/rng.hpp"
#include "availsim/sim/simulator.hpp"

namespace availsim::fault {

/// Interface the testbed exposes to the injector. The harness's Testbed
/// implements this by routing each (type, component) pair to the right
/// substrate hook (link/switch state, disk fault, host crash/freeze,
/// process crash/hang, front-end kill).
class FaultTarget {
 public:
  virtual ~FaultTarget() = default;
  virtual void inject(FaultType type, int component) = 0;
  virtual void repair(FaultType type, int component) = 0;
};

/// Mendosus-equivalent fault injector. Two modes:
///  * scripted single faults for the methodology's Phase 1 (one fault,
///    known injection and repair instants), and
///  * a stochastic expected-fault-load mode with exponential inter-arrival
///    times per component, used to validate the Phase-2 analytic model by
///    direct long-run simulation.
class FaultInjector {
 public:
  struct Event {
    sim::Time at;
    bool is_repair;
    FaultType type;
    int component;
  };

  FaultInjector(sim::Simulator& simulator, FaultTarget& target, sim::Rng rng);

  /// Scripted: inject at `at`, repair at `at + duration`.
  void schedule_fault(sim::Time at, FaultType type, int component,
                      sim::Time duration);

  /// Scripted: inject with no scheduled repair (the harness repairs later,
  /// e.g. after the system stabilizes, to compress long MTTRs).
  void schedule_fault(sim::Time at, FaultType type, int component);

  /// Repairs immediately. Idempotent: repairing a (type, component) pair
  /// that is not currently faulty is a no-op — no target hook runs and no
  /// Event is logged (scripted repairs may race the scheduled one).
  void repair_now(FaultType type, int component);

  /// Stochastic mode: every component of every spec row fails with
  /// exponential inter-arrival of its MTTF and repairs after its MTTR.
  /// When `serialize` is true at most one fault is active at a time
  /// (later arrivals are deferred until the active fault repairs), which
  /// matches the analytic model's single-fault assumption.
  void run_expected_load(const std::vector<FaultSpec>& specs, bool serialize,
                         sim::Time horizon);

  /// Correlated-burst mode: bursts arrive with exponential inter-arrival
  /// of `burst_mttf_seconds`; each burst picks one spec row and injects it
  /// into *several components simultaneously* (e.g. every link on one
  /// switch turns lossy at once), repairing them together after the row's
  /// MTTR. This is the fault regime outside the paper's single-independent-
  /// fault model that real gray failures produce.
  struct CorrelatedLoadOptions {
    double burst_mttf_seconds = 3600.0;
    /// Components hit per burst; 0 = every component of the chosen row.
    int burst_width = 0;
  };
  void run_correlated_load(const std::vector<FaultSpec>& specs,
                           CorrelatedLoadOptions options, sim::Time horizon);

  const std::vector<Event>& log() const { return log_; }
  int active_faults() const { return active_; }
  bool is_active(FaultType type, int component) const;

  /// Observer fired on every injection/repair (markers for the stage
  /// extractor).
  std::function<void(const Event&)> on_event;

 private:
  void fire(bool is_repair, FaultType type, int component);
  void arm_component(const FaultSpec& spec, int component, bool serialize,
                     sim::Time horizon);
  void arm_burst(const std::vector<FaultSpec>& specs,
                 CorrelatedLoadOptions options, sim::Time horizon);

  sim::Simulator& sim_;
  FaultTarget& target_;
  sim::Rng rng_;
  std::vector<Event> log_;
  int active_ = 0;
  // Currently-faulty (type, component) pairs; makes inject/repair
  // idempotent at the injector so the target hooks never see a double
  // repair (or double injection) of the same component.
  std::vector<std::pair<FaultType, int>> active_set_;
  // Deferred stochastic faults waiting for the active one to clear.
  std::vector<sim::EventFn> deferred_;
};

}  // namespace availsim::fault
