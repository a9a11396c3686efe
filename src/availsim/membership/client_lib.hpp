#pragma once

#include <functional>

#include "availsim/membership/board.hpp"
#include "availsim/sim/node_set.hpp"
#include "availsim/sim/simulator.hpp"

namespace availsim::membership {

/// Client library linked into the application (paper §4.2): spawns a
/// thread that periodically checks the shared-memory membership board and
/// calls the application back on changes — NodeIn() when a member joined,
/// NodeOut() when a member was removed — and offers NodeDown() for the
/// application to report a node it has itself observed to be down.
class MembershipClient {
 public:
  MembershipClient(sim::Simulator& simulator, const MembershipBoard& board,
                   sim::Time poll_period = sim::kSecond);

  /// Application callbacks.
  std::function<void(net::NodeId)> on_node_in;
  std::function<void(net::NodeId)> on_node_out;
  /// Wired to the local daemon's node_down_report().
  std::function<void(net::NodeId)> report_down;

  /// Starts the polling thread (call when the application starts). The
  /// first poll reports every current member via NodeIn.
  void start();
  /// Stops polling (application exited).
  void stop();

  /// Application-side NodeDown() entry point.
  void node_down(net::NodeId node);

  bool running() const { return running_; }

 private:
  void poll();
  void arm();

  sim::Simulator& sim_;
  const MembershipBoard& board_;
  sim::Time poll_period_;
  bool running_ = false;
  std::uint64_t epoch_ = 0;
  std::uint64_t seen_version_ = 0;
  sim::NodeSet seen_members_;
};

}  // namespace availsim::membership
