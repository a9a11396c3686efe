// Figure 10: scaled model results for the original COOP version on
// clusters of 8 and 16 nodes — COOP unavailability roughly doubles with
// each doubling of cluster size, because every node-scoped fault stalls
// the whole cooperating cluster and component counts grow.

#include <cstdio>
#include <iostream>

#include "availsim/harness/campaign.hpp"
#include "availsim/harness/experiment.hpp"
#include "availsim/harness/report.hpp"
#include "availsim/model/scaling.hpp"

using namespace availsim;

int main() {
  const harness::Characterization measured = harness::characterize(
      {harness::default_testbed_options(harness::ServerConfig::kCoop)},
      harness::resolve_jobs())[0];
  std::fputs(measured.progress.c_str(), stdout);
  const model::SystemModel& coop4 = measured.model;
  model::SystemModel coop8 = model::scale_cluster(coop4, 4, 8);
  model::SystemModel coop16 = model::scale_cluster(coop4, 4, 16);

  std::printf("Figure 10: scaling the original COOP version (scaled model)\n\n");
  harness::print_breakdown_header(std::cout);
  harness::print_breakdown(std::cout, "COOP-4", coop4);
  harness::print_breakdown(std::cout, "COOP-8", coop8);
  harness::print_breakdown(std::cout, "COOP-16", coop16);

  std::printf("\nGrowth: 8 nodes = %.2fx of 4 nodes, 16 nodes = %.2fx "
              "(paper: ~2x and ~4x)\n",
              coop8.unavailability() / coop4.unavailability(),
              coop16.unavailability() / coop4.unavailability());
  return 0;
}
