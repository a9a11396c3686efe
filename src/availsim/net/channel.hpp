#pragma once

#include <cstdint>
#include <vector>

#include "availsim/net/packet.hpp"
#include "availsim/sim/flat.hpp"
#include "availsim/sim/time.hpp"

namespace availsim::net {

/// Index of a reliable send's refusal callback in its Network's table;
/// kNoRefusal when the send has none.
using RefusalId = std::uint32_t;
inline constexpr RefusalId kNoRefusal = ~RefusalId{0};

/// Book-keeping for reliable ("TCP-like") flows between host pairs.
///
/// Reliability here means: packets sent while the path is down are held and
/// retransmitted when the path comes back (instead of being dropped like
/// datagrams), and per-flow delivery order is preserved. Connection-reset
/// detection (destination process gone) is reported to the sender via the
/// per-send on_refused callback, mirroring a TCP RST.
class FlowTable {
 public:
  struct PendingSend {
    Packet packet;
    RefusalId refusal = kNoRefusal;
    /// Park order, assigned by park(). Every drain returns sends sorted by
    /// this, so link-repair flushes replay in the chronological order the
    /// packets were parked — independent of the hash order of parked_
    /// (bit-for-bit reproducibility across platforms and library versions).
    std::uint64_t seq = 0;
  };

  /// In-order constraint: returns the earliest allowed delivery time for a
  /// reliable packet on flow (src, dst) that would otherwise arrive at
  /// `proposed`, and records it as the flow's newest delivery.
  sim::Time sequence(NodeId src, NodeId dst, sim::Time proposed);

  /// Holds a packet that could not be transmitted because the path is down.
  void park(NodeId src, NodeId dst, PendingSend send);

  /// Removes and returns every parked packet whose flow touches `node`
  /// (used when a link is repaired), in park order.
  std::vector<PendingSend> take_parked_touching(NodeId node);

  /// Removes and returns all parked packets (used on switch repair), in
  /// park order.
  std::vector<PendingSend> take_all_parked();

  /// Discards parked packets destined to `dst` (e.g. the destination node
  /// crashed while unreachable; TCP would eventually reset). In park order.
  std::vector<PendingSend> take_parked_to(NodeId dst);

  std::size_t parked_count() const;

 private:
  static std::uint64_t key(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(dst);
  }

  // Flat maps keyed by the packed (src, dst) flow id: sequence() runs on
  // every reliable delivery, and a flat probe beats a hash-node chase there
  // — the flow-pair population is bounded by the cluster size squared.
  sim::FlatMap<std::uint64_t, sim::Time> last_delivery_;
  sim::FlatMap<std::uint64_t, std::vector<PendingSend>> parked_;
  std::uint64_t next_park_seq_ = 1;
};

}  // namespace availsim::net
