#pragma once

#include <functional>
#include <vector>

#include "availsim/membership/board.hpp"
#include "availsim/net/network.hpp"
#include "availsim/sim/time.hpp"

namespace availsim::fme {

struct SfmeParams {
  sim::Time period = 5 * sim::kSecond;
  /// Consecutive observations of isolation before acting.
  int confirm = 2;
};

/// S-FME (paper §6.2): a stronger FME that monitors the cooperation sets
/// at a *global* level and takes isolated nodes offline. Without it, a
/// back-end that the group has excluded (network or application failure)
/// but that still answers the front-end's pings keeps receiving its full
/// share of client requests, which it must serve alone — overloading it
/// and losing requests. S-FME turns "isolated" into "offline", which the
/// front-end's monitor then masks.
class SfmeMonitor {
 public:
  struct NodeInfo {
    net::NodeId id = net::kNoNode;
    const membership::MembershipBoard* board = nullptr;
    const net::Host* host = nullptr;
  };

  SfmeMonitor(sim::Simulator& simulator, SfmeParams params);

  void set_nodes(std::vector<NodeInfo> nodes);

  /// Enforcement action, wired to the testbed (takes the node down).
  std::function<void(net::NodeId)> take_node_offline;
  std::function<void(const char* marker, net::NodeId about)> on_marker;

  void start();
  void stop();

  std::uint64_t offline_actions() const { return offline_actions_; }

 private:
  void arm();
  void run_cycle();

  sim::Simulator& sim_;
  SfmeParams p_;
  bool running_ = false;
  std::uint64_t epoch_ = 0;
  std::vector<NodeInfo> nodes_;
  std::vector<int> isolation_count_;
  std::uint64_t offline_actions_ = 0;
};

}  // namespace availsim::fme
