// Figure 6: effect of adding redundant *hardware* to the base COOP
// version: FE-X (front-end + spare node) actually increases
// unavailability (more components, masking ineffective against fault
// propagation); RAID + backup switch cut only ~25%; even all hardware
// together doesn't change the availability class.

#include <cstdio>

#include "availsim/harness/campaign.hpp"
#include "availsim/harness/experiment.hpp"
#include "availsim/harness/report.hpp"
#include "availsim/model/hardware.hpp"
#include "availsim/model/predictions.hpp"

using namespace availsim;

int main() {
  const harness::Characterization measured = harness::characterize(
      {harness::default_testbed_options(harness::ServerConfig::kCoop)},
      harness::resolve_jobs())[0];
  std::fputs(measured.progress.c_str(), stdout);
  const model::SystemModel& coop = measured.model;

  model::SystemModel fex =
      model::predict_fex_from_coop(coop, 6 * 30 * 86400.0, 180.0);

  model::SystemModel raid_switch = coop;
  model::apply_raid(raid_switch);
  model::apply_backup_switch(raid_switch);

  model::SystemModel all_hw = fex;
  model::apply_raid(all_hw);
  model::apply_backup_switch(all_hw);
  model::apply_redundant_frontend(all_hw);

  std::printf("Figure 6: unavailability under additional hardware (COOP)\n\n");
  std::printf("%-12s %14s %14s   %s\n", "version", "unavailability",
              "availability", "bar");
  const double scale =
      std::max(coop.unavailability(), fex.unavailability());
  for (const auto& [name, m] :
       {std::pair<const char*, const model::SystemModel*>{"COOP", &coop},
        {"FE-X", &fex},
        {"RAID+Switch", &raid_switch},
        {"All HW", &all_hw}}) {
    std::printf("%-12s %14s %14s   |%s|\n", name,
                harness::format_unavailability(m->unavailability()).c_str(),
                harness::format_availability_percent(m->availability()).c_str(),
                harness::ascii_bar(m->unavailability(), scale).c_str());
  }
  std::printf("\nRAID+switch reduction vs COOP: %.0f%% (paper: ~25%%)\n",
              100.0 * (1 - raid_switch.unavailability() /
                               coop.unavailability()));
  std::printf("FE-X vs COOP: %+.0f%% (paper: FE-X *increases* unavailability)\n",
              100.0 * (fex.unavailability() / coop.unavailability() - 1));
  return 0;
}
