#include "microbench.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "availsim/net/host.hpp"
#include "availsim/net/network.hpp"
#include "availsim/press/cache.hpp"
#include "availsim/press/directory.hpp"
#include "availsim/press/messages.hpp"
#include "availsim/press/params.hpp"
#include "availsim/qmon/qmon.hpp"
#include "availsim/sim/simulator.hpp"
#include "availsim/workload/popularity.hpp"

namespace availbench {

using namespace availsim;

namespace {

constexpr int kRepeats = 5;
// The workload's document population and popularity (TestbedOptions
// defaults): 26,000 files, 80% of requests over the 8,000 hottest.
constexpr int kFiles = 26000;
constexpr int kHotFiles = 8000;
constexpr double kHotWeight = 0.80;

using Clock = std::chrono::steady_clock;

// Keeps results the timed loops compute observable to the optimiser.
volatile std::uint64_t g_sink = 0;

// Median over kRepeats of `body(setup())`'s time divided by the ops it
// reports; setup() runs untimed.
template <typename Setup, typename Body>
double median_ns_per_op(Setup setup, Body body) {
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) {
    auto state = setup();
    const auto t0 = Clock::now();
    const double ops = body(state);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    samples.push_back(ns / ops);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// The stream of requests one PRESS node's cache sees: the workload's
// popularity law restricted to the node's 1/servers share of the files,
// so the share's size relative to the cache capacity matches the run
// (4,854-file caches: 26,000 / 5 files overflow them, 26,000 / 33 do not).
std::vector<workload::FileId> node_stream(int servers, std::size_t length,
                                          std::uint64_t seed) {
  const workload::HotColdSampler popularity(kFiles, kHotFiles, kHotWeight);
  sim::Rng rng(seed);
  std::vector<workload::FileId> out;
  out.reserve(length);
  while (out.size() < length) {
    const workload::FileId f = popularity.sample(rng);
    if (f % servers == 0) out.push_back(f);
  }
  return out;
}

// --- sim: schedule / cancel / fire ---------------------------------------
// Keeps the window's live pending depth; every fired event schedules its
// successor at an exponential delay (Little's law sets the mean), and once
// per request's worth of events two client timeouts (2 s, 6 s) are armed
// and the previous request's pair cancelled, as replies do. The timed loop
// includes seeding the pending set, a few percent of its events.
struct SimLoad {
  sim::Simulator* sim = nullptr;
  sim::Rng rng{1};
  double mean_delay_s = 0;
  int per_req = 1;
  int since_req = 0;
  sim::EventId timers[2] = {sim::kInvalidEvent, sim::kInvalidEvent};

  void fire() {
    sim->schedule_after(sim::from_seconds(rng.exponential(mean_delay_s)),
                        [this] { fire(); });
    if (++since_req < per_req) return;
    since_req = 0;
    sim->cancel(timers[0]);
    sim->cancel(timers[1]);
    timers[0] = sim->schedule_after(2 * sim::kSecond, [] {});
    timers[1] = sim->schedule_after(6 * sim::kSecond, [] {});
  }
};

double sim_microbench(const LayerShape& shape) {
  constexpr int kEvents = 1 << 20;
  const std::size_t depth = std::max<std::size_t>(shape.pending, 16);
  const double events_per_s =
      std::max(1.0, shape.events_per_req * shape.offered_rps);
  return median_ns_per_op([] { return 0; }, [&](int) {
    sim::Simulator s;
    SimLoad load;
    load.sim = &s;
    load.rng = sim::Rng(shape.seed);
    load.mean_delay_s = static_cast<double>(depth) / events_per_s;
    load.per_req = std::max(1, static_cast<int>(shape.events_per_req));
    for (std::size_t i = 0; i < depth; ++i) {
      s.schedule_after(
          sim::from_seconds(load.rng.exponential(load.mean_delay_s)),
          [&load] { load.fire(); });
    }
    for (int i = 0; i < kEvents; ++i) s.step();
    return static_cast<double>(kEvents);
  });
}

// --- net: Network::send + delivery on the cluster fabric -----------------
double net_microbench(const LayerShape& shape) {
  constexpr int kBatches = 4096;
  constexpr int kPerBatch = 64;
  return median_ns_per_op([] { return 0; }, [&](int) {
    sim::Simulator s;
    net::NetworkParams params;
    params.name = "cluster";
    params.base_latency = 80 * sim::kMicrosecond;
    net::Network fabric(s, sim::Rng(shape.seed), params);
    std::vector<std::unique_ptr<net::Host>> hosts;
    std::uint64_t delivered = 0;
    for (int i = 0; i < shape.servers; ++i) {
      hosts.push_back(std::make_unique<net::Host>(s, i, "node"));
      fabric.attach(*hosts.back());
      hosts.back()->bind(net::ports::kPressCacheUpdate,
                         [&delivered](const net::Packet&) { ++delivered; });
    }
    sim::Rng rng(shape.seed + 1);
    const int n = shape.servers;
    for (int b = 0; b < kBatches; ++b) {
      for (int k = 0; k < kPerBatch; ++k) {
        const int src = static_cast<int>(rng.uniform_int(0, n - 1));
        const int dst = (src + 1 + static_cast<int>(rng.uniform_int(0, n - 2))) % n;
        fabric.send(src, dst, net::ports::kPressCacheUpdate,
                    press::wire::kCacheUpdate,
                    net::make_body<press::CacheUpdate>(
                        press::CacheUpdate{dst, true, 0}));
      }
      s.run_until(s.now() + sim::kMillisecond);
    }
    s.run();
    return static_cast<double>(delivered);
  });
}

// --- press: LruCache touch/insert on the node's file stream --------------
double cache_microbench(const LayerShape& shape) {
  const press::PressParams p;
  const auto stream = node_stream(shape.servers, 1 << 20, shape.seed);
  return median_ns_per_op(
      [&] { return press::LruCache(p.cache_bytes, p.file_bytes); },
      [&](press::LruCache& cache) {
    for (workload::FileId f : stream) {
      if (!cache.touch(f)) cache.insert(f);
    }
    return static_cast<double>(stream.size());
  });
}

// A directory as a prewarmed node holds it: every file up to the cluster's
// cache capacity placed on one owner (file % servers).
press::Directory full_directory(int servers) {
  const press::PressParams p;
  const int cap = static_cast<int>(p.cache_bytes / p.file_bytes);
  press::Directory dir;
  const int span = std::min(kFiles, cap * servers);
  for (int f = 0; f < span; ++f) dir.node_caches(f % servers, f);
  for (int n = 0; n < servers; ++n) dir.set_load(n, n % 7);
  return dir;
}

double dir_lookup_microbench(const LayerShape& shape) {
  const press::Directory dir = full_directory(shape.servers);
  sim::FlatSet<net::NodeId> coop;
  for (int n = 0; n < shape.servers; ++n) coop.insert(n);
  const auto stream = node_stream(1, 1 << 20, shape.seed);
  return median_ns_per_op([] { return 0; }, [&](int) {
    std::uint64_t found = 0;
    for (workload::FileId f : stream) {
      found += dir.best_service_node(f, coop).has_value() ? 1 : 0;
    }
    g_sink = found;
    return static_cast<double>(stream.size());
  });
}

// Per-file directory updates: insert/evict broadcasts from peers, then a
// rejoining peer's full cache snapshot.
double dir_update_microbench(const LayerShape& shape) {
  const press::PressParams p;
  const std::size_t cap = p.cache_bytes / p.file_bytes;
  const auto stream = node_stream(1, 1 << 19, shape.seed);
  std::vector<workload::FileId> snapshot(stream.begin(),
                                         stream.begin() + static_cast<long>(cap));
  return median_ns_per_op(
      [&] { return full_directory(shape.servers); },
      [&](press::Directory& dir) {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const net::NodeId n = static_cast<net::NodeId>(i % static_cast<std::size_t>(shape.servers));
      dir.node_caches(n, stream[i]);
      dir.node_evicts(n, stream[i]);
    }
    dir.install_snapshot(0, snapshot);
    return static_cast<double>(2 * stream.size() + snapshot.size());
  });
}

// --- qmon: push / pop / credit / complete cycle ---------------------------
double qmon_microbench(const LayerShape& shape) {
  constexpr int kCycles = 1 << 20;
  const press::PressParams p;
  qmon::QmonPolicy policy = p.qmon;
  policy.enabled = shape.qmon_enabled;
  return median_ns_per_op(
      [&] {
        return qmon::SelfMonitoringQueue(policy, p.block_queue_capacity,
                                         p.forward_window);
      },
      [&](qmon::SelfMonitoringQueue& q) {
    sim::Rng rng(shape.seed);
    std::uint64_t next = 1;
    std::uint64_t oldest = 1;
    for (int i = 0; i < kCycles; ++i) {
      qmon::SelfMonitoringQueue::Entry e;
      e.port = net::ports::kPressIntra;
      e.bytes = press::wire::kForwardRequest;
      e.is_request = true;
      e.request_id = next++;
      q.push(std::move(e), rng);
      while (q.pop_transmittable(i)) {
      }
      // Answers come back a window behind the sends.
      if (next - oldest > static_cast<std::uint64_t>(p.forward_window) / 2) {
        q.credit(oldest);
        q.complete(oldest);
        ++oldest;
      }
    }
    return static_cast<double>(kCycles);
  });
}

}  // namespace

MicrobenchResults run_microbenches(const LayerShape& shape, SpanLog& spans,
                          int parent) {
  MicrobenchResults r;
  int s = spans.open("micro.sim", parent);
  r.sim_ns_per_event = sim_microbench(shape);
  spans.close(s);
  s = spans.open("micro.net", parent);
  r.net_ns_per_packet = net_microbench(shape);
  spans.close(s);
  s = spans.open("micro.press.cache", parent);
  r.cache_ns_per_op = cache_microbench(shape);
  spans.close(s);
  s = spans.open("micro.press.dir_lookup", parent);
  r.dir_lookup_ns = dir_lookup_microbench(shape);
  spans.close(s);
  s = spans.open("micro.press.dir_update", parent);
  r.dir_update_ns = dir_update_microbench(shape);
  spans.close(s);
  s = spans.open("micro.qmon", parent);
  r.qmon_ns_per_op = qmon_microbench(shape);
  spans.close(s);
  return r;
}

}  // namespace availbench
