#pragma once

#include <cstdint>
#include <utility>

#include "availsim/net/packet.hpp"
#include "availsim/sim/node_set.hpp"

namespace availsim::membership {

/// The "shared-memory segment" the membership daemon publishes the current
/// group view to. Applications on the same node attach to it (directly or
/// via the client library) and poll for changes.
class MembershipBoard {
 public:
  std::uint64_t version() const { return version_; }
  const sim::NodeSet& members() const { return members_; }
  bool contains(net::NodeId node) const { return members_.contains(node); }

  /// Daemon-side: publishes a view; only a changed view bumps the version.
  void publish(sim::NodeSet members) {
    if (members == members_) return;
    members_ = std::move(members);
    ++version_;
  }

 private:
  std::uint64_t version_ = 0;
  sim::NodeSet members_;
};

}  // namespace availsim::membership
