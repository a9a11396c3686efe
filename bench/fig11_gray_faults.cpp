// Figure 11 (extension): availability under a *gray* fault load — lossy
// links, flapping links, limping nodes and degraded disks arriving in
// correlated bursts — for INDEP, COOP, FE-X, MEM, Q-MON and MQ, each run
// twice: with the paper's seed detectors and with the gray-hardened
// detectors (accrual membership heartbeats + 2PC retry, service-age
// slow-peer rerouting, retrying FE pings).
//
// Emits one JSON object per (config, detectors) run on stdout (and the
// aggregate to <cache_dir>/fig11_gray_faults.json), suitable for jq /
// plotting:
//   ./fig11_gray_faults [horizon_seconds] [seed] [--jobs N]
//
// The 12 (config, detectors) campaigns are independent replicas and fan
// out across cores; aggregation is in replica order, so the JSON is
// byte-identical for every --jobs value.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "availsim/fault/injector.hpp"
#include "availsim/harness/campaign.hpp"
#include "availsim/harness/experiment.hpp"
#include "availsim/harness/export.hpp"
#include "availsim/harness/testbed.hpp"
#include "availsim/workload/recorder.hpp"

using namespace availsim;

namespace {

struct RunResult {
  double availability = 0;
  double splinter_fraction = 0;  // of post-warmup samples (cooperative only)
  int membership_flaps = 0;      // mem_member_removed commits
  int membership_suspects = 0;
  std::uint64_t qmon_failures = 0;
  std::uint64_t rerouted_slow = 0;
  std::uint64_t forward_failures = 0;
  int bursts = 0;
  int injections = 0;
};

int count_events(const std::vector<harness::Testbed::LogEvent>& log,
                 const std::string& what, sim::Time after) {
  int n = 0;
  for (const auto& ev : log) n += (ev.at >= after && ev.what == what);
  return n;
}

RunResult run_campaign(harness::ServerConfig config, bool hardened,
                       sim::Time horizon, std::uint64_t seed) {
  sim::Simulator sim;
  harness::TestbedOptions opts =
      harness::default_testbed_options(config, seed);
  opts.hardened_detectors = hardened;
  harness::Testbed tb(sim, opts);
  fault::FaultInjector injector(sim, tb, sim::Rng(seed ^ 0xF00));

  tb.start();
  sim.run_until(opts.warmup);

  const sim::Time end = opts.warmup + horizon;
  auto specs = fault::gray_fault_load(tb.server_count());
  fault::FaultInjector::CorrelatedLoadOptions burst;
  burst.burst_mttf_seconds = 300.0;  // compressed campaign: ~1 burst / 5 min
  burst.burst_width = 2;             // two components struck per burst
  injector.run_correlated_load(specs, burst, end);

  // Sample the splinter state on a fixed cadence (Figure-5-style fraction
  // of time the cooperation set is split).
  int samples = 0, splintered = 0;
  const sim::Time sample_period = 5 * sim::kSecond;
  std::function<void()> sample = [&] {
    if (sim.now() >= end) return;
    ++samples;
    splintered += tb.splintered();
    sim.schedule_after(sample_period, sample);
  };
  sim.schedule_after(sample_period, sample);

  sim.run_until(end);

  RunResult r;
  r.availability = tb.recorder().availability(opts.warmup, end);
  r.splinter_fraction = samples ? static_cast<double>(splintered) / samples : 0;
  r.membership_flaps = count_events(tb.log(), "mem_member_removed", opts.warmup);
  r.membership_suspects = count_events(tb.log(), "mem_suspect", opts.warmup);
  for (int i = 0; i < tb.server_count(); ++i) {
    r.qmon_failures += tb.server(i).stats().qmon_failures;
    r.rerouted_slow += tb.server(i).stats().rerouted_slow;
    r.forward_failures += tb.server(i).stats().forward_failures;
  }
  for (const auto& ev : injector.log()) r.injections += !ev.is_repair;
  // Bursts strike burst_width components at one instant.
  r.bursts = r.injections / (burst.burst_width > 0 ? burst.burst_width : 1);
  return r;
}

std::string json_row(const char* name, bool hardened, const RunResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  {\"config\": \"%s\", \"detectors\": \"%s\", "
      "\"availability\": %.6f, \"splinter_fraction\": %.4f, "
      "\"membership_flaps\": %d, \"membership_suspects\": %d, "
      "\"qmon_failures\": %llu, \"rerouted_slow\": %llu, "
      "\"forward_failures\": %llu, \"bursts\": %d, \"injections\": %d}",
      name, hardened ? "hardened" : "seed", r.availability,
      r.splinter_fraction, r.membership_flaps, r.membership_suspects,
      static_cast<unsigned long long>(r.qmon_failures),
      static_cast<unsigned long long>(r.rerouted_slow),
      static_cast<unsigned long long>(r.forward_failures), r.bursts,
      r.injections);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  harness::parse_trace_flags(argc, argv);
  const int jobs = harness::parse_jobs_flag(argc, argv, 0);
  const double horizon_s = argc > 1 ? std::atof(argv[1]) : 1800.0;
  const std::uint64_t seed =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 1;
  const sim::Time horizon = static_cast<sim::Time>(horizon_s) * sim::kSecond;

  struct Entry {
    const char* name;
    harness::ServerConfig config;
  };
  const Entry entries[] = {
      {"INDEP", harness::ServerConfig::kIndep},
      {"COOP", harness::ServerConfig::kCoop},
      {"FE-X", harness::ServerConfig::kFeX},
      {"MEM", harness::ServerConfig::kMem},
      {"Q-MON", harness::ServerConfig::kQmon},
      {"MQ", harness::ServerConfig::kMq},
  };
  constexpr int kReplicas = 12;  // 6 configs x {seed, hardened} detectors

  harness::WallTimer campaign_timer;
  std::vector<std::string> rows = harness::run_replicas(
      jobs, kReplicas, [&](int i) {
        const Entry& e = entries[i / 2];
        const bool hardened = (i % 2) == 1;
        RunResult r = run_campaign(e.config, hardened, horizon, seed);
        return json_row(e.name, hardened, r);
      });
  std::fprintf(stderr,
               "[campaign] fig11: %d campaigns of %.0f s, --jobs %d, %.1f s "
               "wall\n",
               kReplicas, horizon_s, jobs, campaign_timer.seconds());

  std::string json = "[\n";
  for (int i = 0; i < kReplicas; ++i) {
    json += rows[static_cast<std::size_t>(i)];
    if (i + 1 < kReplicas) json += ",";
    json += "\n";
  }
  json += "]\n";
  std::fputs(json.c_str(), stdout);

  const std::string path = harness::results_dir() + "/fig11_gray_faults.json";
  if (std::ofstream out(path); out && (out << json)) {
    std::fprintf(stderr, "(aggregated campaign JSON written to %s)\n",
                 path.c_str());
  }
  return 0;
}
