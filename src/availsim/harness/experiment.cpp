#include "availsim/harness/experiment.hpp"

#include <algorithm>
#include <cstdio>

#include "availsim/harness/campaign.hpp"
#include "availsim/harness/stage_extractor.hpp"

namespace availsim::harness {

TestbedOptions default_testbed_options(ServerConfig config,
                                       std::uint64_t seed) {
  TestbedOptions opts;
  opts.config = config;
  opts.seed = seed;
  // Calibrated against the saturation sweep (examples/saturation_probe;
  // asserted in tests/integration_test.cpp): the 4-node COOP version saturates around
  // 2200-2300 req/s and the INDEP version around 600 req/s — cooperation
  // buys roughly the paper's factor of 3. Every cooperative version runs
  // at ~90% of the 4-node COOP saturation (paper §5); the independent
  // versions, which the paper evaluates as their own systems, run at 90%
  // of *their* saturation.
  switch (config) {
    case ServerConfig::kIndep:
    case ServerConfig::kFeXIndep:
      opts.offered_rps = 520.0;
      break;
    default:
      opts.offered_rps = 2000.0;
      break;
  }
  opts.warmup = 240 * sim::kSecond;
  opts.operator_response = 240 * sim::kSecond;
  return opts;
}

int representative_component(const TestbedOptions& options,
                             fault::FaultType type) {
  // Inject into node 1 (node 0 is the lowest-id member, which plays the
  // coordinator role in the rejoin protocol; the paper injects into an
  // ordinary node).
  switch (type) {
    case fault::FaultType::kSwitchDown:
    case fault::FaultType::kFrontendFailure:
      return 0;
    case fault::FaultType::kScsiTimeout:
      return 1 * options.press.disk_count;  // first disk of node 1
    default:
      return 1;
  }
}

namespace {

// Trace files from campaign replicas must carry names derived from the work
// item (never scheduling order) so `--jobs N` output matches `--jobs 1`.
std::string trace_slug(fault::FaultType type, int component) {
  std::string s = fault::to_string(type);
  for (char& c : s) {
    if (c == ' ') c = '-';
  }
  return "-" + s + "-c" + std::to_string(component);
}

std::vector<double> series_from(const workload::Recorder& rec) {
  std::vector<double> out;
  out.reserve(rec.success_bins().size());
  const double scale =
      static_cast<double>(sim::kSecond) / static_cast<double>(rec.bin_width());
  for (auto v : rec.success_bins()) out.push_back(v * scale);
  return out;
}

}  // namespace

double measure_fault_free_throughput(const TestbedOptions& options,
                                     sim::Time measure) {
  sim::Simulator sim;
  TestbedOptions opts = options;
  opts.trace_label += "-t0";
  Testbed tb(sim, opts);
  tb.start();
  sim.run_until(options.warmup);
  sim.run_until(options.warmup + measure);
  return tb.recorder().mean_throughput(options.warmup,
                                       options.warmup + measure);
}

Phase1Result run_single_fault(const TestbedOptions& options,
                              fault::FaultType type, int component,
                              const Phase1Options& phase1) {
  sim::Simulator sim;
  TestbedOptions opts = options;
  opts.trace_label += trace_slug(type, component);
  Testbed tb(sim, opts);
  sim::Rng rng(options.seed ^ 0x5EED);
  fault::FaultInjector injector(sim, tb, rng.fork(9));
  injector.on_event = [&tb](const fault::FaultInjector::Event& ev) {
    tb.note(ev.is_repair ? "fault_repaired" : "fault_injected", ev.component);
  };

  const auto specs = tb.fault_load();
  const auto* spec = fault::find_spec(specs, type);
  const double mttr_real = spec ? spec->mttr_seconds : 180.0;

  tb.start();
  sim.run_until(options.warmup);
  const sim::Time t_inject = options.warmup + phase1.t0_window;
  sim.run_until(t_inject);
  const double t0 =
      tb.recorder().mean_throughput(options.warmup, t_inject);

  injector.schedule_fault(t_inject, type, component);
  const sim::Time t_repair =
      t_inject + std::min(sim::from_seconds(mttr_real), phase1.repair_cap);
  sim.schedule_at(t_repair, [&injector, type, component] {
    injector.repair_now(type, component);
  });

  // Leave room for: post-repair settle, the operator's grace period, the
  // reset itself, warm-up, and a stable tail.
  const sim::Time t_end = t_repair + phase1.stabilize_window +
                          options.operator_response + 60 * sim::kSecond +
                          phase1.warm_window + phase1.post_reset;
  sim.run_until(t_end);

  ExtractionInputs in;
  in.recorder = &tb.recorder();
  in.events = &tb.log();
  in.t_inject = t_inject;
  in.t_repair_sim = t_repair;
  in.t_end = t_end;
  in.mttr_real_seconds = mttr_real;
  in.t0 = t0;
  in.stabilize_window = phase1.stabilize_window;
  in.warm_window = phase1.warm_window;

  Phase1Result result;
  result.type = type;
  result.component = component;
  result.t0 = t0;
  result.t_inject = t_inject;
  result.t_repair = t_repair;
  result.tmpl.type = type;
  result.tmpl.mttf_seconds = spec ? spec->mttf_seconds : 0;
  result.tmpl.mttr_seconds = mttr_real;
  result.tmpl.components = spec ? spec->component_count : 0;
  result.tmpl.stages = extract_stages(in);
  result.series_rps = series_from(tb.recorder());
  result.events = tb.log();
  return result;
}

std::vector<Characterization> characterize(
    const std::vector<TestbedOptions>& configs, int jobs,
    const Phase1Options& phase1) {
  struct Run {
    std::size_t config;
    fault::FaultType type;
  };
  std::vector<Characterization> out(configs.size());
  std::vector<Run> plan;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const auto load = fault_load(configs[c]);
    for (const auto& spec : load) plan.push_back({c, spec.type});
    out[c].progress = std::string("[phase1] characterizing ") +
                      to_string(configs[c].config) + " (" +
                      std::to_string(load.size()) +
                      " single-fault campaigns)...\n";
  }
  const std::vector<Phase1Result> runs = run_replicas(
      jobs, static_cast<int>(plan.size()), [&](int k) {
        const Run& run = plan[static_cast<std::size_t>(k)];
        const TestbedOptions& options = configs[run.config];
        return run_single_fault(options, run.type,
                                representative_component(options, run.type),
                                phase1);
      });
  for (std::size_t k = 0; k < plan.size(); ++k) {
    const Phase1Result& r = runs[k];
    Characterization& c = out[plan[k].config];
    c.model.set_t0(std::max(c.model.t0(), r.t0));
    c.model.faults().push_back(r.tmpl);
    char line[256];
    std::snprintf(line, sizeof(line), "  %-18s T0=%7.1f  %s\n",
                  fault::to_string(r.type), r.t0,
                  model::to_string(r.tmpl.stages).c_str());
    c.progress += line;
  }
  return out;
}

}  // namespace availsim::harness
