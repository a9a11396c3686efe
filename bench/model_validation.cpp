// End-to-end validation of the Phase-2 analytic model: simulate the
// expected fault load directly (stochastic exponential arrivals, one
// fault at a time, as the model assumes) and compare the measured
// availability against the analytic prediction built from the 7-stage
// templates.
//
// Table-1 fault rates are too sparse to observe in an affordable
// simulation horizon (one cluster fault every ~3 days), so both the
// simulated load and the analytic prediction are accelerated by the same
// factor; unavailability is linear in fault rate, which the comparison
// itself re-checks.

#include <cstdio>

#include "availsim/fault/injector.hpp"
#include "availsim/harness/campaign.hpp"
#include "availsim/harness/experiment.hpp"
#include "availsim/harness/testbed.hpp"

using namespace availsim;

int main() {
  constexpr double kAccel = 100.0;
  constexpr sim::Time kHorizon = 3 * sim::kHour;

  const harness::TestbedOptions opts =
      harness::default_testbed_options(harness::ServerConfig::kCoop);
  const harness::Characterization phase1 =
      harness::characterize({opts}, harness::resolve_jobs())[0];
  std::fputs(phase1.progress.c_str(), stdout);

  // Analytic prediction under the accelerated load.
  model::SystemModel accel = phase1.model;
  double fault_fraction = 0;
  for (auto& f : accel.faults()) {
    f.mttf_seconds /= kAccel;
    fault_fraction += f.time_fraction();
  }
  const double predicted = accel.unavailability();
  if (fault_fraction > 0.5) {
    std::printf("warning: accelerated fault-time fraction %.2f strains the "
                "single-fault assumption\n", fault_fraction);
  }

  // Direct stochastic simulation of the same accelerated load.
  std::printf("Simulating %.1f h of the accelerated (x%.0f) fault load on "
              "COOP...\n",
              sim::to_seconds(kHorizon) / 3600.0, kAccel);
  std::fflush(stdout);
  sim::Simulator simulator;
  harness::Testbed tb(simulator, opts);
  fault::FaultInjector injector(simulator, tb, sim::Rng(777));
  tb.start();
  simulator.run_until(opts.warmup);
  auto specs = tb.fault_load();
  for (auto& s : specs) s.mttf_seconds /= kAccel;
  injector.run_expected_load(specs, /*serialize=*/true,
                             opts.warmup + kHorizon);
  simulator.run_until(opts.warmup + kHorizon);
  const double measured_avail =
      tb.recorder().availability(opts.warmup, opts.warmup + kHorizon);
  const double measured = 1.0 - measured_avail;

  std::size_t injections = 0;
  for (const auto& ev : injector.log()) injections += !ev.is_repair;

  std::printf("\nfaults injected:        %zu\n", injections);
  std::printf("analytic unavailability: %.4f\n", predicted);
  std::printf("measured unavailability: %.4f\n", measured);
  std::printf("ratio (measured/analytic): %.2f  (expect ~1 within fault-"
              "sampling noise)\n",
              predicted > 0 ? measured / predicted : 0.0);
  return 0;
}
