// Figure 8: modeling other approaches on top of the measured FME system
// (exactly as the paper does — these bars are "computed by modeling from
// the experimental results"):
//   S-FME : global cooperation-set monitor takes isolated nodes offline
//   C-MON : front-end TCP connection monitoring (2 s detection)
//   X-SW  : + backup switch
//   RAID  : + RAID on every node

#include <cstdio>
#include <vector>

#include "availsim/harness/campaign.hpp"
#include "availsim/harness/experiment.hpp"
#include "availsim/harness/report.hpp"
#include "availsim/model/hardware.hpp"

using namespace availsim;

int main() {
  // Beyond the paper: we also *measured* S-FME (the global monitor is
  // implemented, not just modeled). Its seed, 31, is the one this row has
  // always been printed with.
  harness::TestbedOptions sfme_opts =
      harness::default_testbed_options(harness::ServerConfig::kFme, 31);
  sfme_opts.with_sfme = true;
  const std::vector<harness::Characterization> measured =
      harness::characterize(
          {harness::default_testbed_options(harness::ServerConfig::kFme),
           sfme_opts},
          harness::resolve_jobs());
  for (const auto& c : measured) std::fputs(c.progress.c_str(), stdout);
  const model::SystemModel& fme = measured[0].model;
  const model::SystemModel& sfme_meas = measured[1].model;

  model::SystemModel sfme = fme;
  model::apply_sfme(sfme);

  model::SystemModel cmon = sfme;
  model::apply_cmon(cmon);

  model::SystemModel xsw = cmon;
  model::apply_backup_switch(xsw);

  model::SystemModel raid = xsw;
  model::apply_raid(raid);

  std::printf("Figure 8: applying other approaches (modeled on measured FME)\n\n");
  std::printf("%-12s %14s %14s   %s\n", "version", "unavailability",
              "availability", "bar");
  const double scale = fme.unavailability();
  for (const auto& [name, m] :
       {std::pair<const char*, const model::SystemModel*>{"FME", &fme},
        {"S-FME", &sfme},
        {"S-FME/meas", &sfme_meas},
        {"C-MON", &cmon},
        {"X-SW", &xsw},
        {"+RAID", &raid}}) {
    std::printf("%-12s %14s %14s   |%s|\n", name,
                harness::format_unavailability(m->unavailability()).c_str(),
                harness::format_availability_percent(m->availability()).c_str(),
                harness::ascii_bar(m->unavailability(), scale).c_str());
  }
  std::printf("\nS-FME cut vs FME: %.0f%% (paper: ~40%%)\n",
              100.0 * (1 - sfme.unavailability() / fme.unavailability()));
  std::printf("X-SW availability: %s (paper: ~99.98%%, near four nines)\n",
              harness::format_availability_percent(xsw.availability()).c_str());
  std::printf("RAID adds little: %s (paper: marginal)\n",
              harness::format_availability_percent(raid.availability()).c_str());
  return 0;
}
