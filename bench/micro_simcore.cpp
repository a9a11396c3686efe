// Microbenchmarks of the simulation substrate's hot paths (google-
// benchmark): event scheduling, RNG, Zipf sampling, LRU cache operations,
// directory lookups, and network delivery. These bound how much simulated
// traffic the availability experiments can afford.
//
// After the google-benchmark suite, a hand-timed section measures raw
// event-loop throughput and a fig7-style mini fault campaign with
// --jobs 1 vs --jobs N (parallel campaign runner). The perf trajectory
// lands in BENCH_simcore.json (path override: AVAILSIM_BENCH_JSON;
// --quick shrinks the campaign for CI).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "availsim/fault/injector.hpp"
#include "availsim/harness/campaign.hpp"
#include "availsim/harness/experiment.hpp"
#include "availsim/harness/testbed.hpp"
#include "availsim/net/network.hpp"
#include "availsim/press/cache.hpp"
#include "availsim/press/directory.hpp"
#include "availsim/sim/node_set.hpp"
#include "availsim/sim/rng.hpp"
#include "availsim/sim/simulator.hpp"
#include "availsim/workload/recorder.hpp"
#include "availsim/workload/zipf.hpp"

using namespace availsim;

static void BM_EventScheduleAndRun(benchmark::State& state) {
  sim::Simulator simulator;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      simulator.schedule_after(i, [&sink] { ++sink; });
    }
    simulator.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventScheduleAndRun);

static void BM_EventScheduleCancel(benchmark::State& state) {
  // Timer churn: half the scheduled events are cancelled before firing
  // (the client-timeout pattern), plus a stale cancel of a fired id.
  sim::Simulator simulator;
  std::uint64_t sink = 0;
  sim::EventId last_fired = sim::kInvalidEvent;
  for (auto _ : state) {
    for (int i = 0; i < 32; ++i) {
      simulator.schedule_after(i, [&sink] { ++sink; });
      sim::EventId timer =
          simulator.schedule_after(1000 + i, [&sink] { ++sink; });
      simulator.cancel(timer);
    }
    simulator.cancel(last_fired);  // stale handle: exact no-op
    last_fired = simulator.schedule_after(0, [&sink] { ++sink; });
    simulator.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 65);
}
BENCHMARK(BM_EventScheduleCancel);

static void BM_RngNextU64(benchmark::State& state) {
  sim::Rng rng(1);
  std::uint64_t sink = 0;
  for (auto _ : state) sink ^= rng.next_u64();
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNextU64);

static void BM_RngExponential(benchmark::State& state) {
  sim::Rng rng(1);
  double sink = 0;
  for (auto _ : state) sink += rng.exponential(1.0);
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngExponential);

static void BM_ZipfSample(benchmark::State& state) {
  workload::ZipfSampler zipf(static_cast<int>(state.range(0)), 0.7);
  sim::Rng rng(2);
  std::int64_t sink = 0;
  for (auto _ : state) sink += zipf.sample(rng);
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(26000)->Arg(100000);

static void BM_LruCacheTouchInsert(benchmark::State& state) {
  press::LruCache cache(4860 * 100, 100);
  workload::ZipfSampler zipf(26000, 0.7);
  sim::Rng rng(3);
  for (auto _ : state) {
    const auto f = zipf.sample(rng);
    if (!cache.touch(f)) benchmark::DoNotOptimize(cache.insert(f));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheTouchInsert);

static void BM_DirectoryLookup(benchmark::State& state) {
  press::Directory dir;
  sim::Rng rng(4);
  for (int n = 0; n < 4; ++n) {
    for (int i = 0; i < 5000; ++i) {
      dir.node_caches(n, static_cast<workload::FileId>(rng.uniform_int(0, 25999)));
    }
    dir.set_load(n, n);
  }
  sim::NodeSet coop{0, 1, 2, 3};
  workload::ZipfSampler zipf(26000, 0.7);
  std::int64_t sink = 0;
  for (auto _ : state) {
    auto best = dir.best_service_node(zipf.sample(rng), coop);
    sink += best ? *best : -1;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryLookup);

static void BM_NetworkSendDeliver(benchmark::State& state) {
  sim::Simulator simulator;
  net::NetworkParams params;
  params.max_jitter = 0;
  net::Network network(simulator, sim::Rng(5), params);
  net::Host a(simulator, 0, "a"), b(simulator, 1, "b");
  network.attach(a);
  network.attach(b);
  std::uint64_t sink = 0;
  b.bind(100, [&sink](const net::Packet&) { ++sink; });
  auto body = net::make_body<int>(7);
  for (auto _ : state) {
    network.send(0, 1, 100, 256, body);
    simulator.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkSendDeliver);

namespace {

// Raw event-loop throughput (schedule + dispatch), hand-timed so the
// number lands in BENCH_simcore.json.
double event_loop_events_per_second(std::uint64_t* events_out) {
  sim::Simulator simulator;
  std::uint64_t sink = 0;
  constexpr int kBatches = 20000;
  constexpr int kPerBatch = 64;
  harness::WallTimer timer;
  for (int b = 0; b < kBatches; ++b) {
    for (int i = 0; i < kPerBatch; ++i) {
      simulator.schedule_after(i, [&sink] { ++sink; });
    }
    simulator.run();
  }
  const double secs = timer.seconds();
  *events_out = simulator.events_processed();
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(simulator.events_processed()) / secs;
}

// Timer-heavy scheduler stress, hand-timed: a standing population of
// `pending_target` pending timers (far larger than any single figure's
// working set) with a schedule/cancel/fire churn on top — the client
// timeout pattern at scale. This is the scheduler's worst case: the heap
// pays O(log n) per schedule, cancel and fire against the whole standing
// population, where the figures keep only ~10^4 events pending.
double timer_churn_ops_per_second(std::size_t pending_target, int rounds,
                                  std::uint64_t* ops_out) {
  sim::Simulator simulator;
  sim::Rng rng(0xC0FFEE);
  std::uint64_t sink = 0;
  std::vector<sim::EventId> timers(pending_target, sim::kInvalidEvent);
  const sim::Time span = 1000 * sim::kSecond;
  std::uint64_t schedules = 0, cancels = 0;
  harness::WallTimer timer;
  // Build the standing population: deadlines spread over the next 1000 s.
  for (std::size_t i = 0; i < pending_target; ++i) {
    timers[i] = simulator.schedule_after(rng.uniform_int(1, span),
                                         [&sink] { ++sink; });
    ++schedules;
  }
  // Churn: every round cancels a slice of live timers, schedules
  // replacements (keeping the population at pending_target), and advances
  // the clock so a slice of the population actually fires.
  const std::size_t slice = pending_target / 64;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t k = 0; k < slice; ++k) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pending_target) - 1));
      simulator.cancel(timers[i]);  // no-op on already-fired ids
      ++cancels;
      timers[i] = simulator.schedule_after(rng.uniform_int(1, span),
                                           [&sink] { ++sink; });
      ++schedules;
    }
    simulator.run_until(simulator.now() + span / 128);
  }
  simulator.run();
  const double secs = timer.seconds();
  benchmark::DoNotOptimize(sink);
  const std::uint64_t ops = schedules + cancels + simulator.events_processed();
  *ops_out = ops;
  return static_cast<double>(ops) / secs;
}

struct ReplicaResult {
  double availability = 0;
  std::uint64_t events = 0;
};

// One fig7-style replica: a private COOP testbed world, one node-crash
// injection + repair, availability measured over the campaign window.
ReplicaResult run_campaign_replica(int i, sim::Time horizon) {
  harness::TestbedOptions opts = harness::default_testbed_options(
      harness::ServerConfig::kCoop, /*seed=*/static_cast<std::uint64_t>(i) + 1);
  opts.warmup = 30 * sim::kSecond;
  sim::Simulator sim;
  harness::Testbed tb(sim, opts);
  fault::FaultInjector injector(sim, tb, sim::Rng(opts.seed ^ 0xF00));
  tb.start();
  sim.run_until(opts.warmup);
  const sim::Time t_inject = opts.warmup + 5 * sim::kSecond;
  injector.schedule_fault(t_inject, fault::FaultType::kNodeCrash, 1,
                          /*duration=*/30 * sim::kSecond);
  const sim::Time end = opts.warmup + horizon;
  sim.run_until(end);
  ReplicaResult r;
  r.availability = tb.recorder().availability(opts.warmup, end);
  r.events = sim.events_processed();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;
  bool quick = false;
  // Strip our flags before google-benchmark sees argv.
  harness::parse_trace_flags(argc, argv);
  jobs = harness::parse_jobs_flag(argc, argv, 0);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();

  // --- hand-timed section: event loop + timer churn + parallel campaign ---
  std::uint64_t loop_events = 0;
  const double loop_eps = event_loop_events_per_second(&loop_events);
  std::printf("\nevent loop: %.0f events/s (%llu events)\n", loop_eps,
              static_cast<unsigned long long>(loop_events));

  const std::size_t churn_pending = 1u << 20;  // ~1M standing timers
  const int churn_rounds = quick ? 8 : 32;
  std::uint64_t churn_ops = 0;
  const double churn_ops_ps =
      timer_churn_ops_per_second(churn_pending, churn_rounds, &churn_ops);
  std::printf("timer churn (%zu pending): %.0f ops/s (%llu ops)\n",
              churn_pending, churn_ops_ps,
              static_cast<unsigned long long>(churn_ops));

  const int replicas = quick ? 2 : 8;
  const sim::Time horizon = (quick ? 60 : 120) * sim::kSecond;
  auto campaign = [&](int j) {
    return harness::run_replicas(j, replicas, [&](int i) {
      return run_campaign_replica(i, horizon);
    });
  };

  harness::WallTimer serial_timer;
  auto serial = campaign(1);
  const double serial_s = serial_timer.seconds();

  // The parallel leg only means something when more than one worker is
  // available. With jobs == 1 it would re-run the identical serial
  // campaign and record its timing noise as a "speedup" (old BENCH
  // artifacts showed campaign_jobs: 1, campaign_speedup: 1.017 — a
  // measurement of nothing). Skip it and emit null instead.
  const bool parallel_leg = jobs > 1;
  double parallel_s = 0.0;
  bool identical = true;
  std::uint64_t campaign_events = 0;
  for (int i = 0; i < replicas; ++i) {
    campaign_events += serial[static_cast<std::size_t>(i)].events;
  }
  if (parallel_leg) {
    harness::WallTimer parallel_timer;
    auto parallel = campaign(jobs);
    parallel_s = parallel_timer.seconds();
    for (int i = 0; i < replicas; ++i) {
      identical &= serial[static_cast<std::size_t>(i)].availability ==
                       parallel[static_cast<std::size_t>(i)].availability &&
                   serial[static_cast<std::size_t>(i)].events ==
                       parallel[static_cast<std::size_t>(i)].events;
    }
    std::printf(
        "campaign (%d replicas x %.0f s sim): --jobs 1 %.2f s, --jobs %d "
        "%.2f s (%.2fx), results %s\n",
        replicas, sim::to_seconds(horizon), serial_s, jobs, parallel_s,
        parallel_s > 0 ? serial_s / parallel_s : 0.0,
        identical ? "identical" : "DIVERGENT");
  } else {
    std::printf(
        "campaign (%d replicas x %.0f s sim): --jobs 1 %.2f s "
        "(single worker: parallel leg skipped)\n",
        replicas, sim::to_seconds(horizon), serial_s);
  }

  harness::BenchJson bench;
  bench.add("bench", std::string("simcore"));
  bench.add("event_loop_events_per_sec", loop_eps);
  bench.add("timer_churn_pending", static_cast<std::uint64_t>(churn_pending));
  bench.add("timer_churn_ops", churn_ops);
  bench.add("timer_churn_ops_per_sec", churn_ops_ps);
  bench.add("campaign_replicas", replicas);
  bench.add("campaign_sim_seconds_per_replica", sim::to_seconds(horizon));
  bench.add("campaign_events", campaign_events);
  bench.add("campaign_events_per_sec_serial",
            serial_s > 0 ? static_cast<double>(campaign_events) / serial_s
                         : 0.0);
  bench.add("campaign_wall_seconds_jobs1", serial_s);
  bench.add("campaign_jobs", jobs);
  if (parallel_leg) {
    bench.add("campaign_wall_seconds_jobsN", parallel_s);
    bench.add("campaign_speedup",
              parallel_s > 0 ? serial_s / parallel_s : 0.0);
  } else {
    bench.add_null("campaign_wall_seconds_jobsN");
    bench.add_null("campaign_speedup");
  }
  bench.add("campaign_results_identical", std::string(identical ? "true"
                                                                : "false"));
  const char* env_path = std::getenv("AVAILSIM_BENCH_JSON");
  const std::string path = env_path ? env_path : "BENCH_simcore.json";
  if (bench.write(path)) {
    std::printf("(perf trajectory written to %s)\n", path.c_str());
  }
  return identical ? 0 : 1;
}
