#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "availsim/net/packet.hpp"

namespace availsim::membership {

/// The "shared-memory segment" the membership daemon publishes the current
/// group view to. Applications on the same node attach to it (directly or
/// via the client library) and poll for changes.
class MembershipBoard {
 public:
  std::uint64_t version() const { return version_; }
  const std::vector<net::NodeId>& members() const { return members_; }

  bool contains(net::NodeId node) const {
    return std::find(members_.begin(), members_.end(), node) !=
           members_.end();
  }

  /// Daemon-side: publishes a new view (members are stored sorted).
  void publish(std::vector<net::NodeId> members) {
    std::sort(members.begin(), members.end());
    if (members == members_) return;
    members_ = std::move(members);
    ++version_;
  }

 private:
  std::uint64_t version_ = 0;
  std::vector<net::NodeId> members_;
};

}  // namespace availsim::membership
