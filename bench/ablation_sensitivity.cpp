// Ablation study: how sensitive is availability to the design constants
// the paper fixes in §5? Three studies:
//   1. heartbeat period (measured: real node-crash injections on COOP) —
//      detection latency scales with tolerance x period;
//   2. operator response time (modeled on COOP templates measured here) —
//      splinter-class faults pay for every second the operator is away;
//   3. FME probe period (measured: one SCSI injection on FME, at the
//      daemon's default period) — enforcement latency bounds the stall
//      window.

#include <cstdio>
#include <vector>

#include "availsim/fme/fme.hpp"
#include "availsim/harness/campaign.hpp"
#include "availsim/harness/experiment.hpp"
#include "availsim/harness/report.hpp"
#include "availsim/model/template.hpp"

using namespace availsim;

namespace {

void heartbeat_sweep(int jobs) {
  std::printf("1. Heartbeat period (COOP, node-crash injection; 3-beat "
              "tolerance)\n");
  std::printf("%12s %16s %18s\n", "period", "detection (s)",
              "stall goodput");
  // One injection campaign per period, each in its own simulator world;
  // replica-order aggregation keeps the table identical for every --jobs.
  const std::vector<double> periods = {2.5, 5.0, 10.0, 20.0};
  auto results = harness::run_replicas(
      jobs, static_cast<int>(periods.size()), [&](int i) {
        harness::TestbedOptions opts =
            harness::default_testbed_options(harness::ServerConfig::kCoop);
        opts.press.heartbeat_period = sim::from_seconds(periods[i]);
        return harness::run_single_fault(opts, fault::FaultType::kNodeCrash,
                                         1);
      });
  for (std::size_t i = 0; i < periods.size(); ++i) {
    const harness::Phase1Result& r = results[i];
    std::printf("%10.1f s %16.1f %15.0f r/s\n", periods[i],
                r.tmpl.stages.t(model::Stage::kA),
                r.tmpl.stages.tput(model::Stage::kA));
  }
  std::printf("\n");
}

void operator_sweep(int jobs) {
  std::printf("2. Operator response time (modeled on measured COOP "
              "templates)\n");
  const model::SystemModel base =
      harness::characterize(
          {harness::default_testbed_options(harness::ServerConfig::kCoop)},
          jobs)[0]
          .model;
  std::printf("%12s %16s %14s\n", "response", "unavailability",
              "availability");
  for (double delay_s : {120.0, 240.0, 600.0, 1800.0, 3600.0}) {
    model::SystemModel m = base;
    for (auto& f : m.faults()) {
      // Stage E (splintered operation awaiting the operator) lasts as long
      // as the operator takes to notice and act.
      if (f.stages.t(model::Stage::kE) > 0 &&
          f.stages.t(model::Stage::kF) > 0) {
        f.stages.t(model::Stage::kE) = delay_s;
      }
    }
    std::printf("%10.0f s %16s %14s\n", delay_s,
                harness::format_unavailability(m.unavailability()).c_str(),
                harness::format_availability_percent(m.availability()).c_str());
  }
  std::printf("\n");
}

void fme_probe_latency() {
  std::printf("3. FME probe period (FME, SCSI-timeout injection)\n");
  std::printf("%12s %22s\n", "period", "enforcement latency");
  // The Testbed runs every FME daemon with FmeParams{}, so this is one
  // measurement at the default probe period.
  const harness::Phase1Result r = harness::run_single_fault(
      harness::default_testbed_options(harness::ServerConfig::kFme),
      fault::FaultType::kScsiTimeout, 2);
  sim::Time offline = -1;
  for (const auto& ev : r.events) {
    if (ev.at > r.t_inject && ev.what == "fme_node_offline") {
      offline = ev.at;
      break;
    }
  }
  std::printf("%10.1f s %19.1f s  (daemon default; latency dominated by the "
              "slow wedge)\n\n",
              sim::to_seconds(fme::FmeParams{}.probe_period),
              offline >= 0 ? sim::to_seconds(offline - r.t_inject) : -1.0);
}

}  // namespace

int main(int argc, char** argv) {
  harness::parse_trace_flags(argc, argv);
  const int jobs = harness::parse_jobs_flag(argc, argv, 0);
  std::printf("Ablations: sensitivity to the paper's design constants\n\n");
  heartbeat_sweep(jobs);
  operator_sweep(jobs);
  fme_probe_latency();
  std::printf(
      "Takeaways: detection latency tracks tolerance x heartbeat period "
      "linearly but is a\nsmall term next to repair and operator delays; "
      "the operator response dominates every\nsplinter-class fault — "
      "which is exactly the case for automatic reintegration (MEM)\nand "
      "enforcement (FME).\n");
  return 0;
}
