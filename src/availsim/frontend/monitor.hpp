#pragma once

#include <functional>
#include <vector>

#include "availsim/net/network.hpp"
#include "availsim/sim/rng.hpp"

namespace availsim::frontend {

struct MonitorParams {
  enum class Mode {
    kPing,        // Mon: ICMP echo every 5 s, 3 misses => node down
    kTcpConnect,  // C-MON: TCP connection monitoring, ~2 s detection
  };
  Mode mode = Mode::kPing;
  sim::Time ping_period = 5 * sim::kSecond;
  int ping_tolerance = 3;
  sim::Time ping_timeout = 4 * sim::kSecond;
  sim::Time tcp_period = sim::kSecond;
  int tcp_tolerance = 2;
  /// --- gray-fault hardening (0 = seed behaviour) ---
  /// A failed ping is re-tried up to `ping_retries` times, each after
  /// `retry_backoff` (doubling), with a short `retry_timeout`, before it
  /// counts as a miss. On a lossy (not dead) link, a probe round almost
  /// always gets one echo through, so the miss counter stays at zero.
  int ping_retries = 0;
  sim::Time retry_backoff = 500 * sim::kMillisecond;
  sim::Time retry_timeout = sim::kSecond;
};

/// Mon-style service-monitoring daemon running on the front-end host. It
/// probes every back-end and triggers an action (add/delete the node in
/// the front-end's distribution table) on state changes.
///
/// Ping mode sees *node* failures only: a node whose application crashed
/// or wedged still answers pings, so the front-end keeps routing to it —
/// exactly the blind spot the paper attributes to Mon. TCP-connect mode
/// (C-MON) additionally sees application crashes (connection refused) and
/// detects everything in ~2 s.
class Monitor {
 public:
  Monitor(sim::Simulator& simulator, net::Network& client_net,
          net::Host& fe_host, sim::Rng rng, MonitorParams params);

  void set_targets(std::vector<net::NodeId> targets);

  /// Status-change trigger (wired to Frontend::set_backend_alive).
  std::function<void(net::NodeId node, bool up)> on_status;

  void start();
  void on_host_crashed();
  void on_host_rebooted();

  bool is_up(net::NodeId node) const;

 private:
  struct State {
    int misses = 0;
    bool up = true;
  };

  bool host_ok() const { return host_.state() == net::Host::State::kUp; }
  void arm(net::NodeId target, sim::Time delay);
  void probe(net::NodeId target);
  void ping_attempt(net::NodeId target, int attempt);
  void record(net::NodeId target, bool ok);
  bool tcp_connect_ok(net::NodeId target) const;

  sim::Simulator& sim_;
  net::Network& net_;
  net::Host& host_;
  sim::Rng rng_;
  MonitorParams p_;
  bool running_ = false;
  std::uint64_t epoch_ = 0;
  std::vector<net::NodeId> targets_;
  std::vector<State> state_;  // by NodeId; a node never probed reads up
};

}  // namespace availsim::frontend
