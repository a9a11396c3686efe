// Figure 7: unavailability by fault class for COOP, FE-X, MEM, Q-MON, MQ
// and FME. For each HA configuration two rows are printed, matching the
// paper's paired bars: "modeled" (analytic extrapolation from the COOP
// measurements, computed before implementing the technique) and
// "measured" (fault injection into the fully implemented system).
//
// The six configurations' Phase-1 fault runs are independent (each owns a
// private Simulator/Testbed world) and fan out across cores as one
// campaign:
//   ./fig7_by_component [--jobs N]     (default: all cores; AVAILSIM_JOBS
//                                       overrides; output is byte-identical
//                                       for every N)

#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "availsim/harness/campaign.hpp"
#include "availsim/harness/experiment.hpp"
#include "availsim/harness/export.hpp"
#include "availsim/harness/report.hpp"
#include "availsim/model/hardware.hpp"
#include "availsim/model/predictions.hpp"

using namespace availsim;

int main(int argc, char** argv) {
  harness::parse_trace_flags(argc, argv);
  const int jobs = harness::parse_jobs_flag(argc, argv, 0);

  struct Entry {
    const char* name;
    harness::ServerConfig config;
  };
  const Entry entries[] = {
      {"COOP", harness::ServerConfig::kCoop},
      {"FE-X", harness::ServerConfig::kFeX},
      {"MEM", harness::ServerConfig::kMem},
      {"Q-MON", harness::ServerConfig::kQmon},
      {"MQ", harness::ServerConfig::kMq},
      {"FME", harness::ServerConfig::kFme},
  };
  constexpr int kConfigs = 6;

  std::vector<harness::TestbedOptions> configs;
  for (const Entry& e : entries) {
    configs.push_back(harness::default_testbed_options(e.config));
  }
  harness::WallTimer campaign_timer;
  const std::vector<harness::Characterization> measured =
      harness::characterize(configs, jobs);
  for (const auto& c : measured) std::fputs(c.progress.c_str(), stdout);
  std::fprintf(stderr,
               "[campaign] fig7: %d characterizations, --jobs %d, %.1f s\n",
               kConfigs, jobs, campaign_timer.seconds());

  const model::SystemModel& coop = measured[0].model;
  model::SystemModel fex_pred =
      model::predict_fex_from_coop(coop, 6 * 30 * 86400.0, 180.0);

  std::printf(
      "Figure 7: unavailability by component (modeled-from-COOP vs "
      "measured)\n\n");
  harness::print_breakdown_header(std::cout);
  harness::print_breakdown(std::cout, "COOP", coop);

  const model::SystemModel predicted[] = {
      fex_pred,
      model::predict_mem(fex_pred),
      model::predict_qmon(fex_pred),
      model::predict_mq(fex_pred),
      model::predict_fme(fex_pred),
  };

  double mq_measured = 0, fme_measured = 0;
  std::vector<std::pair<std::string, model::SystemModel>> rows;
  rows.emplace_back("COOP", coop);
  for (int i = 1; i < kConfigs; ++i) {
    const Entry& e = entries[i];
    harness::print_breakdown(std::cout, std::string(e.name) + "/model",
                             predicted[i - 1]);
    rows.emplace_back(std::string(e.name) + "/model", predicted[i - 1]);
    const model::SystemModel& m = measured[i].model;
    harness::print_breakdown(std::cout, std::string(e.name) + "/meas", m);
    rows.emplace_back(std::string(e.name) + "/meas", m);
    if (e.config == harness::ServerConfig::kMq) mq_measured = m.unavailability();
    if (e.config == harness::ServerConfig::kFme) {
      fme_measured = m.unavailability();
    }
  }
  const std::string dir = harness::results_dir();
  const std::string csv = dir + "/fig7.csv";
  if (harness::export_breakdown_csv(rows, csv)) {
    std::printf("\n(plot-ready data written to %s)\n", csv.c_str());
  }
  const std::string json = dir + "/fig7.json";
  if (harness::export_breakdown_json(rows, json)) {
    std::printf("(aggregated campaign JSON written to %s)\n", json.c_str());
  }

  std::printf("\nMQ reduction vs COOP:  %.0f%% (paper: ~87%%)\n",
              100.0 * (1 - mq_measured / coop.unavailability()));
  std::printf("FME reduction vs COOP: %.0f%% (paper: ~94%%)\n",
              100.0 * (1 - fme_measured / coop.unavailability()));

  // The same comparison under a slower (30-minute) operator — the
  // methodology treats the operator response as a supplied environmental
  // value, and it multiplies COOP's splinter-class losses while the
  // self-healing configurations barely move.
  model::SystemModel coop_slow = coop;
  model::apply_operator_response(coop_slow, 1800);
  model::SystemModel mq_slow = measured[4].model;
  model::apply_operator_response(mq_slow, 1800);
  model::SystemModel fme_slow = measured[5].model;
  model::apply_operator_response(fme_slow, 1800);
  std::printf("\nWith a 30-minute operator response (COOP at %s):\n",
              harness::format_unavailability(coop_slow.unavailability())
                  .c_str());
  std::printf("  MQ reduction:  %.0f%%   FME reduction: %.0f%%\n",
              100.0 * (1 - mq_slow.unavailability() /
                               coop_slow.unavailability()),
              100.0 * (1 - fme_slow.unavailability() /
                               coop_slow.unavailability()));
  return 0;
}
