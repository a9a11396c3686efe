// Trace-driven workloads: synthesize a request trace (stand-in for the
// paper's Rutgers trace), save it, reload it, and replay it against the
// cooperative server — demonstrating byte-identical replayable
// experiments across machines.
//
// Usage: trace_replay [trace-file]

#include <cstdio>
#include <memory>

#include "availsim/harness/experiment.hpp"
#include "availsim/workload/client.hpp"
#include "availsim/workload/trace.hpp"

using namespace availsim;

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "availsim_results/sample.trace";

  // 1. Get a trace: load if present, otherwise synthesize and save one.
  std::optional<workload::Trace> trace = workload::Trace::load(path);
  if (trace) {
    std::printf("Loaded trace %s: %zu requests, %.1f req/s over %.0f s\n",
                path.c_str(), trace->size(), trace->rate(),
                sim::to_seconds(trace->duration()));
  } else {
    // Replay the file just written, not the in-memory trace: the file
    // holds microseconds, so this run and every later reload replay the
    // same arrival times.
    workload::HotColdSampler pop(26000, 8000, 0.8);
    const workload::Trace synthesized = workload::Trace::synthesize(
        pop, sim::Rng(2026), 500.0, 120 * sim::kSecond);
    if (synthesized.save(path)) trace = workload::Trace::load(path);
    if (!trace) {
      std::printf("Could not save the synthesized trace to %s\n",
                  path.c_str());
      return 1;
    }
    std::printf("Synthesized and saved trace %s: %zu requests\n",
                path.c_str(), trace->size());
  }

  // 2. Replay it against a COOP cluster (the built-in Poisson clients are
  //    disabled by setting their rate effectively to zero via a fresh
  //    testbed whose clients we simply never start — we drive our own).
  harness::TestbedOptions opts =
      harness::default_testbed_options(harness::ServerConfig::kCoop);
  sim::Simulator simulator;
  harness::Testbed tb(simulator, opts);
  tb.start();
  // Quiet the built-in open-loop clients: the testbed starts them, so we
  // measure our trace separately with a dedicated recorder+host.
  workload::Recorder recorder(simulator);
  net::Host replay_host(simulator, 900, "trace-client");
  tb.client_net().attach(replay_host);
  workload::Client::Replay replay;
  replay.loop = true;
  workload::Client client(simulator, tb.client_net(), replay_host, *trace,
                          replay, recorder);
  client.set_destinations({0, 1, 2, 3}, net::ports::kPressHttp);
  simulator.run_until(opts.warmup);
  client.start();
  simulator.run_until(opts.warmup + 240 * sim::kSecond);

  std::printf("\nReplay over %d s against COOP (on top of the regular "
              "load):\n", 240);
  std::printf("  offered:   %llu\n",
              static_cast<unsigned long long>(recorder.total_offered()));
  std::printf("  succeeded: %llu\n",
              static_cast<unsigned long long>(recorder.total_success()));
  std::printf("  availability of the replayed stream: %.4f%%\n",
              100.0 * recorder.availability(opts.warmup,
                                            opts.warmup + 240 * sim::kSecond));
  return 0;
}
