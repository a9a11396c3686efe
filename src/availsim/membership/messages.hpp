#pragma once

#include <cstdint>
#include <variant>

#include "availsim/net/packet.hpp"
#include "availsim/sim/node_set.hpp"

namespace availsim::membership {

/// Membership daemon wire protocol (UDP on the intra-cluster fabric).

struct MHeartbeat {
  net::NodeId from = net::kNoNode;
  std::uint64_t view_version = 0;
};

/// Two-phase-commit group change, coordinated by the detecting/answering
/// member (paper §4.2, a variation of the three-round algorithm of
/// Cristian & Schmuck).
struct ProposeChange {
  bool add = false;
  net::NodeId subject = net::kNoNode;
  net::NodeId proposer = net::kNoNode;
  std::uint64_t change_id = 0;
  sim::NodeSet extra;  // group-merge: subject's group mates
};

struct AckChange {
  std::uint64_t change_id = 0;
  net::NodeId from = net::kNoNode;
};

struct CommitChange {
  bool add = false;
  net::NodeId subject = net::kNoNode;
  std::uint64_t change_id = 0;
  sim::NodeSet new_view;
};

/// Multicast to the well-known group address by a starting daemon.
struct JoinRequest {
  net::NodeId joiner = net::kNoNode;
};

/// Periodic multicast used to re-merge partitioned sub-groups after the
/// network heals.
struct AliveAnnounce {
  net::NodeId from = net::kNoNode;
  sim::NodeSet members;
};

struct MemberMsg {
  std::variant<MHeartbeat, ProposeChange, AckChange, CommitChange, JoinRequest,
               AliveAnnounce>
      msg;
};

/// Well-known multicast group id for join/merge traffic.
inline constexpr int kMembershipMulticastGroup = 100;

}  // namespace availsim::membership
