#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "availsim/net/host.hpp"
#include "availsim/net/packet.hpp"
#include "availsim/sim/id_ring.hpp"
#include "availsim/sim/node_set.hpp"
#include "availsim/sim/rng.hpp"
#include "availsim/sim/simulator.hpp"

namespace availsim::net {

struct NetworkParams {
  std::string name = "net";
  /// One-way propagation + protocol latency per hop.
  sim::Time base_latency = 100 * sim::kMicrosecond;
  /// Per-link serialization bandwidth in bits per second (cLAN ~1 Gb/s).
  double bandwidth_bps = 1e9;
  /// Random jitter added to each delivery (breaks event phase-locking).
  sim::Time max_jitter = 20 * sim::kMicrosecond;
  /// First TCP retransmission timeout for reliable flows crossing a lossy
  /// link (doubles per consecutive loss, RFC-6298-style floor).
  sim::Time retransmit_timeout = 200 * sim::kMillisecond;
};

/// Gray-fault state of one host's link: the link is *up* but sick. Loss is
/// applied per direction (a packet crosses the sender's and the receiver's
/// link), latency/jitter are added per sick link crossed.
struct LinkQuality {
  double loss = 0.0;            // per-direction drop probability [0, 1)
  sim::Time extra_latency = 0;  // added one-way delay per crossing
  sim::Time extra_jitter = 0;   // uniform extra jitter bound per crossing
  bool degraded() const {
    return loss > 0.0 || extra_latency > 0 || extra_jitter > 0;
  }
};

/// A switched LAN: every attached host has one link to a single switch.
///
/// The testbed instantiates two Networks over the same Host objects — the
/// intra-cluster fabric and the client-facing fabric — reproducing the
/// Mendosus property that intra-cluster faults (link down, switch down)
/// never disturb client traffic.
///
/// Fault surface: per-host link up/down, switch up/down. Host up/frozen/
/// down state lives on the shared Host objects.
struct SendOptions {
  /// Reliable ("TCP") flows: park while the path is down, preserve order,
  /// and report refusal (destination down / port unbound) to the sender.
  bool reliable = false;
  /// Fired (asynchronously) when a reliable packet is refused.
  sim::EventFn on_refused;
};

/// Index of a reliable send's refusal callback in its Network's table;
/// kNoRefusal when the send has none.
using RefusalId = std::uint32_t;
inline constexpr RefusalId kNoRefusal = ~RefusalId{0};

class Network {
 public:
  using SendOptions = net::SendOptions;

  /// Ping outcome callback: `ok` is true iff an echo reply came back.
  using PingCallback = std::function<void(bool ok)>;

  Network(sim::Simulator& simulator, sim::Rng rng, NetworkParams params);

  const std::string& name() const { return params_.name; }

  /// Attaches a host; its link starts up. Ids are dense (packet.hpp), so
  /// the link table is indexed by them.
  void attach(Host& host);
  bool attached(NodeId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < links_.size() &&
           links_[static_cast<std::size_t>(id)].host != nullptr;
  }
  Host& host(NodeId id) { return *link(id).host; }

  void send(NodeId src, NodeId dst, int port, std::size_t bytes,
            std::shared_ptr<const void> body,
            SendOptions options = SendOptions());

  /// ICMP-style echo: answered by the host itself (not a process) iff the
  /// host is up and reachable; `cb(true)` on reply, `cb(false)` after
  /// `timeout` with no reply.
  void ping(NodeId src, NodeId dst, sim::Time timeout, PingCallback cb);

  /// IP multicast: delivered (datagram semantics) to every subscribed,
  /// reachable host except the sender.
  void multicast_join(int group, NodeId id);
  void multicast(NodeId src, int group, int port, std::size_t bytes,
                 std::shared_ptr<const void> body);

  /// --- fault hooks ---
  void set_link_up(NodeId id, bool up);
  void set_switch_up(bool up);
  bool link_up(NodeId id) const;

  /// --- gray-fault hooks ---
  /// Lossy link: the link stays up but drops/delays packets.
  void set_link_quality(NodeId id, LinkQuality quality);
  void clear_link_quality(NodeId id) { set_link_quality(id, LinkQuality{}); }
  LinkQuality link_quality(NodeId id) const;

  /// Flapping link: alternates down/up on a duty cycle, starting with the
  /// down phase now. Reliable traffic parks during down phases and bursts
  /// out on every up edge, exactly the load pattern that destabilizes
  /// naive heartbeat detectors. stop_link_flap() restores the link up.
  void start_link_flap(NodeId id, sim::Time down_time, sim::Time up_time);
  void stop_link_flap(NodeId id);
  bool flapping(NodeId id) const { return attached(id) && link(id).flap.on; }

  /// True iff packets can currently move from a to b (links + switch).
  /// Host process state is not part of the path; a packet to a down host
  /// is refused at delivery, as in a real LAN.
  bool path_up(NodeId a, NodeId b) const;

  /// Diagnostics.
  std::uint64_t packets_delivered() const { return delivered_; }
  std::uint64_t packets_dropped() const { return dropped_; }
  std::uint64_t packets_lost() const { return lost_; }
  std::size_t parked_reliable() const { return parked_.size(); }

 private:
  struct FlapState {
    bool on = false;
    sim::Time down_time = 0;
    sim::Time up_time = 0;
    /// Bumped by every start and never reset, so a stopped flap's pending
    /// toggle finds a newer epoch and cannot fire into a later flap.
    std::uint64_t epoch = 0;
  };

  /// One host's link to the switch, at its NodeId in links_.
  struct Link {
    Host* host = nullptr;  // nullptr: no host attached under this id
    bool up = false;
    /// Uplink serialization: the next packet leaves no earlier than this.
    sim::Time free_at = 0;
    LinkQuality quality;  // healthy by default: no loss, delay or jitter
    FlapState flap;
    /// Newest reliable delivery from this host, by destination NodeId: a
    /// reliable packet never overtakes an earlier one on its flow.
    std::vector<sim::Time> last_delivery;
  };

  /// A reliable send held while its path is down.
  struct Parked {
    Packet packet;
    RefusalId refusal = kNoRefusal;
  };

  Link& link(NodeId id) {
    assert(attached(id));
    return links_[static_cast<std::size_t>(id)];
  }
  const Link& link(NodeId id) const {
    assert(attached(id));
    return links_[static_cast<std::size_t>(id)];
  }

  /// Moves a reliable send's refusal callback into refusals_, where it
  /// waits until the packet is delivered, dropped or refused. Returns its
  /// index, or kNoRefusal when there is nothing to report to.
  RefusalId hold_refusal(SendOptions& options);
  /// Removes and returns the callback held at `id` (empty for kNoRefusal).
  sim::EventFn take_refusal(RefusalId id);
  void transmit(Packet packet, bool reliable, RefusalId refusal);
  void schedule_delivery(sim::Time at, Packet packet, RefusalId refusal);
  void deliver(const Packet& packet, RefusalId refusal);
  /// Retransmits, in park order, the parked sends that touch `node`, or
  /// all of them for kNoNode. A send whose path is still down parks again,
  /// at the tail.
  void flush(NodeId node);
  sim::Time tx_time(std::size_t bytes) const;
  /// Combined per-direction loss probability of the (src, dst) path.
  double path_loss(NodeId src, NodeId dst) const;
  /// Added latency from sick links on the path, jitter included.
  sim::Time path_degradation_delay(NodeId src, NodeId dst);
  /// Retransmission delay for a reliable packet: 0 if the first attempt
  /// survives, else the summed exponential-backoff timeouts of the lost
  /// attempts (TCP hides the loss but not the time).
  sim::Time retransmit_delay(double loss);
  void arm_flap(NodeId id, bool down_next);
  /// Resolves an outstanding ping exactly once (echo reply or timeout,
  /// whichever fires first; the loser finds the entry gone).
  void ping_reply(std::uint64_t id, bool ok);

  sim::Simulator& sim_;
  sim::Rng rng_;
  NetworkParams params_;
  std::vector<Link> links_;  // by NodeId
  // Ordered on purpose: multicast iterates members and each transmit draws
  // RNG jitter, so the iteration order is part of the event schedule — it
  // must be canonical, not hash order.
  std::map<int, sim::NodeSet> groups_;
  // Outstanding pings by id; the echo/timeout closures capture only the id,
  // so whichever fires second finds the ping gone.
  sim::IdRing<PingCallback> pings_;
  // Reliable sends waiting for their path, oldest first.
  std::vector<Parked> parked_;
  // Refusal callbacks of reliable sends in flight or parked, by RefusalId.
  // Delivery closures and parked sends carry only the index, which keeps
  // the delivery closure inside EventFn's inline buffer.
  std::vector<sim::EventFn> refusals_;
  std::vector<RefusalId> free_refusals_;
  bool switch_up_ = true;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t lost_ = 0;  // gray-fault losses (distinct from path-down drops)
};

}  // namespace availsim::net
