// availbench: one benchmark run of one workload of the availsim simulator.
//
//   availbench --workload <name> --seed <n> --seconds <s>
//              [--setups <k>] [--traced] [--spans <path>]
//   availbench --list
//
// Builds the workload's world (--setups times; the window runs on the
// last), warms it up, waits for steady state, then measures a window whose
// simulated length scales with --seconds. Untraced runs report the
// end-to-end numbers; --traced attaches the tracer and auditor, counts
// trace records per layer, runs the layer microbenchmarks and reports the
// per-layer numbers. Prints one JSON object on stdout; run.py turns runs
// into the benchmark's result line.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "microbench.hpp"
#include "probe.hpp"
#include "spans.hpp"
#include "world.hpp"

using namespace availbench;

namespace {

// Steady-state gate tolerances: the fitted change across the trend window
// must stay within this share of the mean.
constexpr double kGoodputTolerance = 0.05;
constexpr double kPendingTolerance = 0.10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int setups = 1;
  bool traced = false;
  std::string spans_path;
};

bool parse(int argc, char** argv, Args& a) {
  if (argc == 2 && std::strcmp(argv[1], "--list") == 0) {
    for (const WorkloadSpec& w : all_workloads()) std::printf("%s\n", w.name);
    std::exit(0);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--traced") {
      a.traced = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--setups") {
      a.setups = std::atoi(v);
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && a.setups >= 1;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Minimal JSON object writer: one "key": value pair per call.
class Json {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    add(key, buf);
  }
  void u64(const char* key, std::uint64_t v) { add(key, std::to_string(v)); }
  void str(const char* key, const std::string& v) { add(key, "\"" + v + "\""); }
  void boolean(const char* key, bool v) { add(key, v ? "true" : "false"); }
  // A metric for run.py's result line: {"value": v, "unit": u}.
  void metric(const char* name, double v, const char* unit) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "{\"value\": %.17g, \"unit\": \"%s\"}",
                  std::isfinite(v) ? v : 0.0, unit);
    metrics_ += (metrics_.empty() ? "" : ", ") + std::string("\"") + name +
                "\": " + buf;
  }
  std::string str() const {
    return "{" + body_ + ", \"metrics\": {" + metrics_ + "}}";
  }

 private:
  void add(const char* key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + std::string("\"") + key +
             "\": " + v;
  }
  std::string body_;
  std::string metrics_;
};

// Runs 1 s slices from the end of the warm-up until the last
// spec.gate_slices of them show neither goodput nor live pending events
// trending. Returns the window start, or -1 if the gate gave up.
sim::Time gate(World& world, SpanLog& spans, int parent) {
  const WorkloadSpec& spec = world.spec;
  std::vector<double> goodput;
  std::vector<double> pending;
  sim::Time t = world.sim.now();
  for (int i = 0; i < spec.gate_max_slices; ++i) {
    const int s = spans.open("gate.slice", parent);
    world.run_until(t + sim::kSecond);
    spans.close(s);
    goodput.push_back(static_cast<double>(
        world.testbed->recorder().successes_in(t, t + sim::kSecond)));
    pending.push_back(static_cast<double>(world.sim.pending()));
    t += sim::kSecond;
    const std::size_t k = static_cast<std::size_t>(spec.gate_slices);
    if (goodput.size() > k) {
      goodput.erase(goodput.begin());
      pending.erase(pending.begin());
    }
    if (goodput.size() == k && flat(goodput, kGoodputTolerance) &&
        flat(pending, kPendingTolerance)) {
      return t;
    }
  }
  return -1;
}

struct Window {
  sim::Time start = 0;
  sim::Time end = 0;
  double wall_s = 0;
  std::vector<double> slice_ms;
  std::vector<bool> disturbed;
  std::vector<double> pending;  // live pending events after each slice
  std::size_t disk_queue_max = 0;
  alloc::Counts allocs;
  Counters counters;
};

Window measure(World& world, sim::Time start, double seconds, SpanLog& spans) {
  Window w;
  w.start = start;
  w.end = start + window_length(world.spec, seconds);
  schedule_script(world, w.start, w.end - w.start);
  harness::Testbed& tb = *world.testbed;
  const int disks = tb.server_count() * tb.options().press.disk_count;
  const Counters before = read_counters(world.sim, tb);
  if (world.records) world.records->open_window();
  w.slice_ms.reserve(static_cast<std::size_t>((w.end - w.start) / sim::kSecond));
  w.disturbed.reserve(w.slice_ms.capacity());
  w.pending.reserve(w.slice_ms.capacity());
  const int win = spans.open("window");
  alloc::start();
  for (sim::Time t = w.start; t < w.end; t += sim::kSecond) {
    int s = 0;
    {
      alloc::Pause pause;
      s = spans.open("window.slice", win);
    }
    world.run_until(t + sim::kSecond);
    alloc::Pause pause;
    w.slice_ms.push_back(spans.close(s));
    w.disturbed.push_back(world.disturbed());
    w.pending.push_back(static_cast<double>(world.sim.pending()));
    for (int d = 0; d < disks; ++d) {
      w.disk_queue_max = std::max(w.disk_queue_max, tb.disk(d).queue_depth());
    }
  }
  w.allocs = alloc::stop();
  w.wall_s = spans.close(win) / 1000.0;
  w.counters = delta(read_counters(world.sim, tb), before);
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: availbench --workload <name> --seed <n> --seconds "
                 "<s> [--setups <k>] [--traced] [--spans <path>]\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "availbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  SpanLog spans;
  std::vector<double> setup_s;
  double build_ms = 0;
  double warmup_s = 0;
  sim::Time window_start = -1;
  std::unique_ptr<World> world;
  for (int k = 0; k < args.setups; ++k) {
    world.reset();
    const int root = spans.open("setup");
    int s = spans.open("build", root);
    world = std::make_unique<World>(*spec, args.seed, args.traced);
    build_ms = spans.close(s);
    s = spans.open("start", root);
    world->testbed->start();
    spans.close(s);
    s = spans.open("warmup", root);
    world->run_until(world->testbed->options().warmup);
    warmup_s = spans.close(s) / 1000.0;
    s = spans.open("gate", root);
    window_start = gate(*world, spans, s);
    spans.close(s);
    setup_s.push_back(spans.close(root) / 1000.0);
    if (window_start < 0) break;
  }

  Json out;
  out.str("workload", spec->name);
  out.u64("seed", args.seed);
  out.boolean("traced", args.traced);
  if (window_start < 0) {
    out.boolean("correct", false);
    out.str("reason", "never steady: goodput or pending events still "
                      "trending after the gate's limit");
    std::printf("%s\n", out.str().c_str());
    return 0;
  }

  const Window w = measure(*world, window_start, args.seconds, spans);
  harness::Testbed& tb = *world->testbed;
  const workload::Recorder& rec = world->testbed->recorder();
  const Counters& c = w.counters;
  const double offered = static_cast<double>(rec.offered_in(w.start, w.end));
  const double availability = rec.availability(w.start, w.end);

  // Every request resolves (served, refused or timed out) within the 6 s
  // completion timeout, so only those sent in the last few seconds may
  // still be open at the end of the run.
  const std::int64_t open = static_cast<std::int64_t>(rec.total_offered()) -
                            static_cast<std::int64_t>(rec.total_success()) -
                            static_cast<std::int64_t>(rec.total_failed());
  const std::int64_t may_be_open = static_cast<std::int64_t>(
      rec.offered_in(w.end - 7 * sim::kSecond, w.end));
  const std::int64_t unaccounted =
      open < 0 ? -open : std::max<std::int64_t>(open - may_be_open, 0);

  std::uint64_t injections = 0;
  std::uint64_t repairs = 0;
  for (const fault::FaultInjector::Event& e : world->injector->log()) {
    ++(e.is_repair ? repairs : injections);
  }
  const std::uint64_t dig = digest(*world->testbed, c, w.start, w.end);
  const std::size_t violations =
      world->auditor ? world->auditor->violations().size() : 0;

  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, dig);
  std::string reason;
  if (!(offered > 0) || std::isnan(availability)) {
    reason = "the window saw no offered requests";
  } else if (unaccounted > 0) {
    reason = "requests unaccounted for: neither served nor failed after "
             "the completion timeout, or more outcomes than offers";
  } else if (violations > 0) {
    reason = "auditor violation: " + world->auditor->violations()[0].invariant;
  }
  out.boolean("correct", reason.empty());
  out.str("reason", reason);
  out.str("digest", hex);
  out.u64("offered", static_cast<std::uint64_t>(offered));
  out.u64("unaccounted", static_cast<std::uint64_t>(unaccounted));
  out.u64("events", c.events);
  out.u64("alloc_calls", w.allocs.calls);
  out.u64("alloc_bytes", w.allocs.bytes);
  out.u64("gate_slices", static_cast<std::uint64_t>(
                             (window_start - tb.options().warmup) / sim::kSecond));
  out.u64("faults_scripted", spec->script.size());
  out.u64("injections", injections);
  out.num("window_sim_s", sim::to_seconds(w.end - w.start));
  out.num("wall_s", w.wall_s);
  out.num("availability", availability);

  if (!args.traced) {
    out.metric("wall_s", w.wall_s, "s");
    out.metric("setup_s", median(setup_s), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("availability", availability, "fraction");
    std::printf("%s\n", out.str().c_str());
    return 0;
  }

  // --- per-layer metrics (traced run) ---
  const RecordCounter& rc = *world->records;
  const auto per_req = [&](double v) { return offered > 0 ? v / offered : 0; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };

  std::vector<double> steady_ms;
  std::vector<double> fault_ms;
  double ok_free = 0, off_free = 0, ok_fault = 0, off_fault = 0;
  std::uint64_t bins_over = 0;
  for (std::size_t i = 0; i < w.slice_ms.size(); ++i) {
    const sim::Time t = w.start + static_cast<sim::Time>(i) * sim::kSecond;
    const double ok = static_cast<double>(rec.successes_in(t, t + sim::kSecond));
    const double off = static_cast<double>(rec.offered_in(t, t + sim::kSecond));
    if (ok > off) ++bins_over;
    if (w.disturbed[i]) {
      fault_ms.push_back(w.slice_ms[i]);
      ok_fault += ok;
      off_fault += off;
    } else {
      steady_ms.push_back(w.slice_ms[i]);
      ok_free += ok;
      off_free += off;
    }
  }
  std::size_t dir_entries = 0;
  for (int i = 0; i < tb.server_count(); ++i) {
    const press::Directory& dir = world->testbed->server(i).directory();
    for (int peer = 0; peer < tb.server_count(); ++peer) {
      dir_entries += dir.files_known_for(peer);
    }
  }

  LayerShape shape;
  shape.servers = tb.server_count();
  shape.pending = static_cast<std::size_t>(median(w.pending));
  shape.events_per_req = per_req(static_cast<double>(c.events));
  shape.offered_rps = tb.options().offered_rps;
  shape.qmon_enabled = tb.options().config == harness::ServerConfig::kMq ||
                       tb.options().config == harness::ServerConfig::kFme;
  shape.seed = args.seed;
  const int drv = spans.open("microbenches");
  const MicrobenchResults d = run_microbenches(shape, spans, drv);
  spans.close(drv);

  using trace::Kind;
  const press::PressNode::Stats& p = c.press;
  out.metric("sim.events_per_req", per_req(static_cast<double>(c.events)), "events/req");
  out.metric("sim.pending_max",
             *std::max_element(w.pending.begin(), w.pending.end()), "count");
  out.metric("sim.ns_per_event", d.sim_ns_per_event, "ns");
  out.metric("net.cluster_pkts_per_req", per_req(static_cast<double>(c.cluster_pkts)), "pkts/req");
  out.metric("net.client_pkts_per_req", per_req(static_cast<double>(c.client_pkts)), "pkts/req");
  out.metric("net.lost", static_cast<double>(c.pkts_lost), "count");
  out.metric("net.ns_per_packet", d.net_ns_per_packet, "ns");
  out.metric("disk.ops_per_req", per_req(static_cast<double>(c.disk_ops)), "ops/req");
  out.metric("disk.queue_max", static_cast<double>(w.disk_queue_max), "count");
  out.metric("press.local_hit_ratio", per_req(static_cast<double>(p.served_local_cache)), "ratio");
  out.metric("press.forward_ratio", per_req(static_cast<double>(p.forwards_sent)), "ratio");
  out.metric("press.forward_fail_ratio", ratio(static_cast<double>(p.forward_failures), static_cast<double>(p.forwards_sent)), "ratio");
  out.metric("press.dropped_overload", static_cast<double>(p.dropped_overload), "count");
  out.metric("press.exclusions", static_cast<double>(p.exclusions), "count");
  out.metric("press.rejoins", static_cast<double>(p.rejoins), "count");
  out.metric("press.blocked_episodes", static_cast<double>(p.blocked_episodes), "count");
  out.metric("press.dir_entries", static_cast<double>(dir_entries), "count");
  out.metric("press.cache_ns_per_op", d.cache_ns_per_op, "ns");
  out.metric("press.dir_lookup_ns", d.dir_lookup_ns, "ns");
  out.metric("press.dir_update_ns", d.dir_update_ns, "ns");
  out.metric("qmon.failures", static_cast<double>(p.qmon_failures), "count");
  out.metric("qmon.reroutes", static_cast<double>(p.rerouted + p.rerouted_slow), "count");
  out.metric("qmon.sendq_max", static_cast<double>(rc.sendq_max()), "count");
  out.metric("qmon.ns_per_op", d.qmon_ns_per_op, "ns");
  out.metric("membership.commits", static_cast<double>(rc.count(Kind::kMemCommit)), "count");
  out.metric("membership.view_installs", static_cast<double>(rc.count(Kind::kMemViewInstall)), "count");
  out.metric("membership.suspects", static_cast<double>(rc.count(Kind::kMemSuspect)), "count");
  out.metric("fme.probes", static_cast<double>(c.fme.probes), "count");
  out.metric("fme.probe_failures", static_cast<double>(c.fme.probe_failures), "count");
  out.metric("fme.actions", static_cast<double>(c.fme.offline_actions + c.fme.restart_actions), "count");
  out.metric("frontend.forwarded_per_req", per_req(static_cast<double>(c.fe_forwarded)), "ratio");
  out.metric("frontend.dropped", static_cast<double>(c.fe_dropped), "count");
  out.metric("frontend.masks", static_cast<double>(rc.count(Kind::kFeMask)), "count");
  out.metric("workload.offered", offered, "count");
  out.metric("workload.failed_refused", static_cast<double>(c.failed[0]), "count");
  out.metric("workload.failed_connect_timeout", static_cast<double>(c.failed[1]), "count");
  out.metric("workload.failed_completion_timeout", static_cast<double>(c.failed[2]), "count");
  out.metric("workload.outstanding_max", static_cast<double>(rc.outstanding_max()), "count");
  out.metric("workload.availability_fault_free", ratio(ok_free, off_free), "fraction");
  out.metric("workload.availability_under_fault", ratio(ok_fault, off_fault), "fraction");
  out.metric("workload.bins_over_offered", static_cast<double>(bins_over), "count");
  out.metric("fault.injections", static_cast<double>(injections), "count");
  out.metric("fault.repairs", static_cast<double>(repairs), "count");
  out.metric("harness.build_ms", build_ms, "ms");
  out.metric("harness.warmup_s", warmup_s, "s");
  out.metric("harness.slices", static_cast<double>(w.slice_ms.size()), "count");
  out.metric("harness.slice_ms_p50", percentile(steady_ms, 0.50), "ms");
  out.metric("harness.slice_ms_p90", percentile(steady_ms, 0.90), "ms");
  out.metric("harness.fault_slice_ms_p50", percentile(fault_ms, 0.50), "ms");
  out.metric("trace.records_per_req", per_req(static_cast<double>(c.trace_records)), "records/req");
  out.metric("alloc.per_req", per_req(static_cast<double>(w.allocs.calls)), "allocs/req");
  out.metric("alloc.bytes_per_req", per_req(static_cast<double>(w.allocs.bytes)), "bytes/req");

  if (!args.spans_path.empty() &&
      !spans.write_jsonl(args.spans_path, spec->name, args.seed)) {
    std::fprintf(stderr, "availbench: cannot write spans to %s\n",
                 args.spans_path.c_str());
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}
