#pragma once

#include <cstdint>
#include <vector>

#include "availsim/net/network.hpp"
#include "availsim/sim/node_set.hpp"
#include "availsim/sim/time.hpp"

namespace availsim::frontend {

struct FrontendParams {
  /// Per-request forwarding cost (LVS-style front-ends are far faster than
  /// the back-ends they feed).
  sim::Time cpu_forward = 20 * sim::kMicrosecond;
};

/// LVS-like front-end request distributor (paper §4.1). Clients address a
/// virtual IP on this host; the front-end tunnels each request to a live
/// back-end (round-robin — PRESS does its own locality-aware distribution
/// behind it) and the back-end replies *directly* to the client, so the
/// front-end is not on the reply path.
class Frontend {
 public:
  Frontend(sim::Simulator& simulator, net::Network& client_net,
           net::Host& host, FrontendParams params);

  net::NodeId id() const { return host_.id(); }

  void set_backends(std::vector<net::NodeId> backends);

  /// Mon's trigger action: adds/deletes the entry in the distribution table.
  void set_backend_alive(net::NodeId node, bool alive);

  void start();
  void on_host_crashed();
  void on_host_rebooted();  // restart with all backends presumed alive

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  void on_request(const net::Packet& packet);

  sim::Simulator& sim_;
  net::Network& net_;
  net::Host& host_;
  FrontendParams p_;
  bool running_ = false;
  std::vector<net::NodeId> backends_;
  sim::NodeSet alive_;
  std::size_t rr_ = 0;
  sim::Time cpu_free_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace availsim::frontend
