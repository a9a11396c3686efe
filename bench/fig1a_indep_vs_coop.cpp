// Figure 1(a): unavailability and throughput of three PRESS versions —
// INDEP (independent servers), FE-X-INDEP (independent + front-end + one
// extra node), and COOP (cooperative). Shows the paper's headline
// tension: cooperation triples throughput but costs ~an order of
// magnitude in availability.
//
// The three configurations' Phase-1 fault runs fan out as one campaign
// (--jobs N, default all cores); results are aggregated in run order so
// the output is byte-identical for every jobs value.

#include <cstdio>
#include <vector>

#include "availsim/harness/campaign.hpp"
#include "availsim/harness/experiment.hpp"
#include "availsim/model/hardware.hpp"
#include "availsim/harness/report.hpp"

using namespace availsim;

int main(int argc, char** argv) {
  harness::parse_trace_flags(argc, argv);
  const int jobs = harness::parse_jobs_flag(argc, argv, 0);
  struct Row {
    harness::ServerConfig config;
    double capacity_rps;  // saturated capacity (throughput bar)
  };
  // Capacities from the saturation sweep (examples/saturation_probe):
  // INDEP saturates ~600 req/s on 4 nodes, COOP ~2150 req/s.
  const Row rows[] = {
      {harness::ServerConfig::kIndep, 600},
      {harness::ServerConfig::kFeXIndep, 600 * 5.0 / 4.0},
      {harness::ServerConfig::kCoop, 2150},
  };
  constexpr int kRows = 3;

  std::vector<harness::TestbedOptions> configs;
  for (const Row& row : rows) {
    configs.push_back(harness::default_testbed_options(row.config));
  }
  harness::WallTimer campaign_timer;
  const std::vector<harness::Characterization> measured =
      harness::characterize(configs, jobs);
  for (const auto& c : measured) std::fputs(c.progress.c_str(), stdout);
  std::fprintf(stderr,
               "[campaign] fig1a: %d characterizations, --jobs %d, %.1f s\n",
               kRows, jobs, campaign_timer.seconds());

  std::printf("Figure 1(a): unavailability and throughput, 4-node cluster\n\n");
  std::printf("%-12s %14s %14s %14s\n", "version", "unavailability",
              "availability", "throughput");
  double coop_u = 0, indep_u = 0, coop_t = 0, indep_t = 0;
  for (int i = 0; i < kRows; ++i) {
    const Row& row = rows[i];
    const model::SystemModel& m = measured[i].model;
    std::printf("%-12s %14s %14s %11.0f r/s\n",
                harness::to_string(row.config),
                harness::format_unavailability(m.unavailability()).c_str(),
                harness::format_availability_percent(m.availability()).c_str(),
                row.capacity_rps);
    if (row.config == harness::ServerConfig::kCoop) {
      coop_u = m.unavailability();
      coop_t = row.capacity_rps;
    }
    if (row.config == harness::ServerConfig::kIndep) {
      indep_u = m.unavailability();
      indep_t = row.capacity_rps;
    }
  }
  std::printf("\nCooperation speedup: %.2fx (paper: ~3x)\n", coop_t / indep_t);
  std::printf("Cooperation unavailability cost: %.1fx at a %d s operator "
              "response (paper: ~10x)\n",
              indep_u > 0 ? coop_u / indep_u : 0.0,
              static_cast<int>(sim::to_seconds(
                  harness::default_testbed_options(
                      harness::ServerConfig::kCoop)
                      .operator_response)));

  // The operator response time is an environmental parameter of the
  // methodology (it bounds how long a splintered COOP cluster stays
  // suboptimal; INDEP never splinters). Re-derive the comparison for
  // slower operators:
  std::printf("\nSensitivity to the assumed operator response time:\n");
  std::printf("%12s %14s %14s %8s\n", "response", "INDEP", "COOP", "ratio");
  for (double resp : {240.0, 900.0, 1800.0, 3600.0}) {
    model::SystemModel coop_m = measured[2].model;
    model::SystemModel indep_m = measured[0].model;
    model::apply_operator_response(coop_m, resp);
    model::apply_operator_response(indep_m, resp);
    std::printf("%10.0f s %14s %14s %7.1fx\n", resp,
                harness::format_unavailability(indep_m.unavailability()).c_str(),
                harness::format_unavailability(coop_m.unavailability()).c_str(),
                indep_m.unavailability() > 0
                    ? coop_m.unavailability() / indep_m.unavailability()
                    : 0.0);
  }
  return 0;
}
