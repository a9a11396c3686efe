// Figure 12 (extension): simulator scalability on large clusters. Sweeps
// the back-end count N over {16, 32, 64, 128} for the COOP and MQ
// versions and reports, per (config, N), how fast the simulator chews
// through the campaign — events/s and wall-clock seconds — plus the
// measured availability as a sanity check. Offered load is 500 req/s per
// node, so what grows with N is state rather than work per request: N
// directories and caches of 26,000-file catalogues, and the event heap
// that holds N nodes' and 500·N req/s of clients' pending events. A row's
// events per offered request (500·N req/s over warm-up plus horizon) do
// not grow with N: in the committed 120 s sweep they go from 7.3 at N=16
// to 3.8 at N=128 for COOP and from 9.4 to 6.8 for MQ, because the 2 s
// boot stagger leaves more of a larger cluster unstarted inside the
// window and a refused request costs few events.
//
// Each campaign runs one node-crash + repair so membership and broadcast
// recovery paths stay hot. Emits one JSON row per run on stdout and the
// perf trajectory artifact BENCH_large_cluster.json (path override:
// AVAILSIM_BENCH_JSON).
//
//   ./fig12_large_cluster [--quick] [--jobs N] [horizon_seconds] [seed]
//
// Default --jobs is 1 (not the core count): the per-run wall-clock IS the
// measurement here, and concurrent campaigns would contend for cores and
// corrupt it. --jobs N still works for a fast functional pass.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "availsim/fault/injector.hpp"
#include "availsim/harness/campaign.hpp"
#include "availsim/harness/experiment.hpp"
#include "availsim/harness/testbed.hpp"
#include "availsim/workload/recorder.hpp"

using namespace availsim;

namespace {

struct RunResult {
  double availability = 0;
  double wall_seconds = 0;
  double events_per_sec = 0;
  std::uint64_t events = 0;
};

RunResult run_campaign(harness::ServerConfig config, int base_nodes,
                       sim::Time horizon, std::uint64_t seed) {
  harness::TestbedOptions opts =
      harness::default_testbed_options(config, seed);
  opts.base_nodes = base_nodes;
  // Hold per-node load constant as N grows (the paper's 4-node COOP runs
  // ~500 req/s per node at 90% saturation) so the cluster and its state,
  // not the offered load per node, is what scales.
  opts.offered_rps = 500.0 * base_nodes;
  opts.warmup = 30 * sim::kSecond;
  opts.operator_response = 60 * sim::kSecond;

  sim::Simulator sim;
  harness::WallTimer timer;
  harness::Testbed tb(sim, opts);
  fault::FaultInjector injector(sim, tb, sim::Rng(seed ^ 0xF1612));
  tb.start();
  sim.run_until(opts.warmup);
  const sim::Time t_inject = opts.warmup + horizon / 4;
  injector.schedule_fault(t_inject, fault::FaultType::kNodeCrash, 1,
                          /*duration=*/30 * sim::kSecond);
  const sim::Time end = opts.warmup + horizon;
  sim.run_until(end);

  RunResult r;
  r.availability = tb.recorder().availability(opts.warmup, end);
  r.wall_seconds = timer.seconds();
  r.events = sim.events_processed();
  r.events_per_sec = r.wall_seconds > 0
                         ? static_cast<double>(r.events) / r.wall_seconds
                         : 0.0;
  return r;
}

std::string json_row(const char* name, int n, const RunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  {\"config\": \"%s\", \"nodes\": %d, "
                "\"availability\": %.6f, \"events\": %llu, "
                "\"events_per_sec\": %.0f, \"wall_seconds\": %.3f}",
                name, n, r.availability,
                static_cast<unsigned long long>(r.events), r.events_per_sec,
                r.wall_seconds);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  harness::parse_trace_flags(argc, argv);
  const int jobs = harness::parse_jobs_flag(argc, argv, 1);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  const double horizon_s = argc > 1 ? std::atof(argv[1]) : (quick ? 20.0 : 120.0);
  const std::uint64_t seed =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 1;
  const sim::Time horizon = static_cast<sim::Time>(horizon_s * sim::kSecond);

  struct Entry {
    const char* name;
    harness::ServerConfig config;
  };
  const Entry entries[] = {
      {"COOP", harness::ServerConfig::kCoop},
      {"MQ", harness::ServerConfig::kMq},
  };
  const int sizes[] = {16, 32, 64, 128};
  constexpr int kConfigs = 2;
  constexpr int kSizes = 4;
  constexpr int kRuns = kConfigs * kSizes;

  harness::WallTimer campaign_timer;
  std::vector<RunResult> results = harness::run_replicas(
      jobs, kRuns, [&](int i) {
        const Entry& e = entries[i / kSizes];
        return run_campaign(e.config, sizes[i % kSizes], horizon, seed);
      });
  std::fprintf(stderr,
               "[campaign] fig12: %d runs of %.0f s sim, N up to %d, "
               "--jobs %d, %.1f s wall\n",
               kRuns, horizon_s, sizes[kSizes - 1], jobs,
               campaign_timer.seconds());

  std::string json = "[\n";
  for (int i = 0; i < kRuns; ++i) {
    json += json_row(entries[i / kSizes].name, sizes[i % kSizes],
                     results[static_cast<std::size_t>(i)]);
    if (i + 1 < kRuns) json += ",";
    json += "\n";
  }
  json += "]\n";
  std::fputs(json.c_str(), stdout);

  harness::BenchJson bench;
  bench.add("bench", std::string("large_cluster"));
  bench.add("horizon_sim_seconds", horizon_s);
  bench.add("jobs", jobs);
  bench.add("quick", quick ? 1 : 0);
  for (int i = 0; i < kRuns; ++i) {
    const RunResult& r = results[static_cast<std::size_t>(i)];
    std::string prefix = std::string(entries[i / kSizes].name) + "_n" +
                         std::to_string(sizes[i % kSizes]);
    for (char& c : prefix) c = static_cast<char>(std::tolower(c));
    bench.add(prefix + "_events", r.events);
    bench.add(prefix + "_events_per_sec", r.events_per_sec);
    bench.add(prefix + "_wall_seconds", r.wall_seconds);
    bench.add(prefix + "_availability", r.availability);
  }
  const char* env_path = std::getenv("AVAILSIM_BENCH_JSON");
  const std::string path = env_path ? env_path : "BENCH_large_cluster.json";
  if (bench.write(path)) {
    std::fprintf(stderr, "(perf trajectory written to %s)\n", path.c_str());
  }
  return 0;
}
