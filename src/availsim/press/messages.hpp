#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "availsim/net/packet.hpp"
#include "availsim/sim/node_set.hpp"
#include "availsim/workload/fileset.hpp"

namespace availsim::press {

/// Intra-cluster PRESS protocol. Every message carries the sender's current
/// load (open-connection count), piggybacked as in the paper, so peers keep
/// fresh load information without dedicated traffic.

/// Initial node -> service node: serve this file from your cache (or disk)
/// and send it back.
struct ForwardRequest {
  workload::FileId file = 0;
  std::uint64_t forward_id = 0;
  net::NodeId initial_node = net::kNoNode;
  int load = 0;
  std::int64_t sent_at = 0;  // original client send time (staleness shedding)
};

/// Service node -> initial node, sent the moment the forward is *read*
/// off the connection: the TCP-level flow-control credit. A wedged peer
/// stops reading, so these stop, the sender's window fills, and its send
/// queue builds — the signal queue monitoring watches.
struct ForwardAck {
  std::uint64_t forward_id = 0;
  int load = 0;
};

/// Service node -> initial node: the file content (bytes ride in the
/// packet size).
struct ForwardReply {
  std::uint64_t forward_id = 0;
  bool success = true;
  int load = 0;
};

/// Broadcast whenever a node starts or stops caching a file, keeping every
/// peer's directory of remote caches current.
struct CacheUpdate {
  workload::FileId file = 0;
  bool cached = true;  // false: evicted
  int load = 0;
};

/// Ring heartbeat (base PRESS membership): sent to the ring successor
/// every period; three missed heartbeats mean the predecessor is presumed
/// dead.
struct Heartbeat {
  net::NodeId from = net::kNoNode;
  int load = 0;
};

/// Control plane (processed by helper threads even when the coordinating
/// thread is blocked).
struct Exclude {
  net::NodeId excluded = net::kNoNode;
  net::NodeId by = net::kNoNode;
};

/// Broadcast by a (re)starting server process to the configured peer list.
struct RejoinRequest {
  net::NodeId joiner = net::kNoNode;
};

/// Sent by the lowest-id active member: current cluster configuration.
struct RejoinReply {
  sim::NodeSet members;
};

/// Announcement from the joiner to each member, answered with that
/// member's caching information.
struct JoinAnnounce {
  net::NodeId joiner = net::kNoNode;
};

struct CacheSnapshot {
  net::NodeId owner = net::kNoNode;
  std::vector<workload::FileId> files;
  int load = 0;
};

/// Envelope for the control port (exclusion + rejoin protocol share one
/// helper-thread connection in PRESS).
struct ControlMsg {
  std::variant<Exclude, RejoinRequest, RejoinReply, JoinAnnounce> msg;
};

/// Nominal wire sizes (bytes) used for transmission-time modeling.
namespace wire {
inline constexpr std::size_t kControl = 64;
inline constexpr std::size_t kForwardRequest = 128;
inline constexpr std::size_t kCacheUpdate = 48;
inline constexpr std::size_t kHeartbeat = 32;
inline std::size_t snapshot_bytes(std::size_t files) { return 64 + 4 * files; }
}  // namespace wire

}  // namespace availsim::press
