#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "availsim/net/packet.hpp"
#include "availsim/sim/rng.hpp"
#include "availsim/sim/time.hpp"

namespace availsim::qmon {

/// Queue-monitoring thresholds (paper §4.3 / §5). With monitoring enabled,
/// a queue reaching `reroute_requests` signals overload (divert most new
/// traffic but keep probing with a small fraction); reaching
/// `fail_requests` request messages or `fail_total` messages of all types
/// declares the peer failed.
struct QmonPolicy {
  bool enabled = false;
  std::size_t reroute_requests = 128;
  std::size_t fail_requests = 256;
  std::size_t fail_total = 512;
  /// Fraction of overload-destined requests still routed to the queue so
  /// that recovery is noticed ("a small fraction of the requests are still
  /// routed to it").
  double probe_fraction = 0.15;
  /// Gray-fault hardening: when the *oldest unanswered request* to the
  /// peer is older than this, the peer is limping (slow, not stopped) and
  /// new requests are rerouted — long before its acks stop and the
  /// 128-entry queue threshold could ever trip. 0 disables (seed
  /// behaviour: only queue length is watched).
  sim::Time slow_peer_age = 0;
};

/// A self-monitoring send queue to one cooperating peer.
///
/// This is the paper's reusable COTS component: cluster services built as
/// components connected by queues get failure detection "for free" by
/// watching their own send queues build up. It also models the TCP-like
/// flow control that makes queues build at all: at most `window` requests
/// may be in flight (un-replied) to the peer; a peer that stops making
/// progress stops producing replies, so the queue grows.
class SelfMonitoringQueue {
 public:
  struct Entry {
    int port = 0;
    std::shared_ptr<const void> body;
    std::size_t bytes = 0;
    bool is_request = false;
    std::uint64_t request_id = 0;
  };

  enum class PushResult {
    kQueued,    // accepted
    kReroute,   // monitoring says: send this somewhere else (overload)
    kWouldBlock  // no monitoring and the queue is at block capacity: the
                 // caller's coordinating thread must block (base PRESS)
  };

  SelfMonitoringQueue(QmonPolicy policy, std::size_t block_capacity,
                      int window);

  /// Offers an entry. Requests are subject to reroute/fail thresholds;
  /// non-request messages only to total capacity.
  PushResult push(Entry entry, sim::Rng& rng);

  /// Next entry allowed onto the wire (respecting the in-flight window),
  /// or nullopt. The caller transmits it and, for requests, later calls
  /// credit() when the flow-control credit (ack) arrives and complete()
  /// when the peer's answer arrives. `now` stamps the transmission for
  /// service-age monitoring.
  std::optional<Entry> pop_transmittable(sim::Time now = 0);

  /// A reply for `request_id` arrived: frees a window slot.
  /// Returns false if the id was not in flight (stale/duplicate).
  bool credit(std::uint64_t request_id);

  /// The peer answered (or the request was abandoned): ends the service-
  /// age tracking started by pop_transmittable(). It does not free the
  /// window slot; only credit() does.
  void complete(std::uint64_t request_id);

  /// Drops everything (queued and in flight); returns the queued request
  /// ids and in-flight request ids so the owner can fail those requests.
  std::vector<std::uint64_t> purge();

  /// --- monitoring view ---
  bool over_reroute_threshold() const;
  bool over_fail_threshold() const;
  bool at_block_capacity() const;
  /// With monitoring on: admit this request despite overload? (probe)
  bool admit_probe(sim::Rng& rng) const;

  /// Age of the oldest transmitted-but-unanswered request, 0 if none.
  sim::Time oldest_outstanding_age(sim::Time now) const;
  /// Gray-fault hardening: is the peer limping? (policy.slow_peer_age)
  bool over_slow_threshold(sim::Time now) const;

  std::size_t queued_requests() const { return queued_requests_; }
  std::size_t queued_total() const { return queue_.size(); }
  std::size_t in_flight() const { return in_flight_; }
  /// Transmitted requests not yet complete()d.
  std::size_t outstanding() const {
    return std::count_if(sent_.begin(), sent_.end(),
                         [](const Sent& s) { return !s.completed; });
  }
  const QmonPolicy& policy() const { return policy_; }

 private:
  QmonPolicy policy_;
  std::size_t block_capacity_;
  int window_;
  /// A transmitted request, kept until it is both credited and complete.
  struct Sent {
    std::uint64_t request_id = 0;
    sim::Time at = 0;        // transmission time
    bool credited = false;   // its window slot is free
    bool completed = false;  // no longer ages
  };
  /// Sets `flag` on the transmitted request `request_id`, dropping it once
  /// both flags are set; false if it is not there or the flag was set.
  bool settle(std::uint64_t request_id, bool Sent::*flag);

  std::deque<Entry> queue_;
  std::size_t queued_requests_ = 0;
  // Transmitted requests in ascending id order: requests are pushed in id
  // order and leave the queue in order. Times grow with the id too, so the
  // first entry not complete is the oldest outstanding request. A vector,
  // not a std::deque: steady traffic allocates nothing.
  std::vector<Sent> sent_;
  std::size_t in_flight_ = 0;  // entries not yet credited (the window)
};

}  // namespace availsim::qmon
