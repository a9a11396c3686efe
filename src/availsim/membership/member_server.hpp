#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "availsim/membership/board.hpp"
#include "availsim/membership/messages.hpp"
#include "availsim/net/network.hpp"
#include "availsim/sim/id_ring.hpp"
#include "availsim/sim/node_set.hpp"
#include "availsim/sim/rng.hpp"

namespace availsim::membership {

struct MemberServerParams {
  sim::Time heartbeat_period = 5 * sim::kSecond;
  int heartbeat_tolerance = 3;
  sim::Time monitor_period = sim::kSecond;
  sim::Time ack_timeout = 2 * sim::kSecond;
  sim::Time join_timeout = 3 * sim::kSecond;
  /// Period of the AliveAnnounce multicast that re-merges splintered
  /// sub-groups once the network heals.
  sim::Time announce_period = 15 * sim::kSecond;

  /// --- gray-fault hardening (off by default: seed behaviour) ---
  /// With `hardened` set, two detectors change. (1) Accrual-style
  /// suspicion: a neighbour is suspected only when the silence since its
  /// last heartbeat exceeds `phi_threshold` × a smoothed (EWMA, gain
  /// `ewma_alpha`) estimate of its heartbeat inter-arrival time — on a
  /// lossy link the observed inter-arrivals stretch, so the deadline
  /// stretches with them instead of firing on a short run of eaten
  /// heartbeats. The accrual deadline is floored at the fixed deadline, so
  /// detection of truly dead nodes is never faster *or* slower than the
  /// seed on a clean network. (2) 2PC retry: an unanswered ProposeChange
  /// is retransmitted to the members that have not acked, up to
  /// `propose_retries` times with doubling `ack_timeout` backoff, before
  /// the vote is closed.
  bool hardened = false;
  double phi_threshold = 8.0;
  double ewma_alpha = 0.1;
  int propose_retries = 3;
};

/// The robust group-membership daemon (paper §4.2): an independent service
/// process on every node. Members arrange themselves in a logical ring and
/// heartbeat both neighbours; group changes go through a two-phase commit
/// coordinated by the detecting member; new nodes join via a well-known IP
/// multicast address; network partitions yield independent sub-groups that
/// re-merge through periodic announcements. The daemon publishes its view
/// to a shared-memory board that applications watch through the client
/// library.
class MemberServer {
 public:
  MemberServer(sim::Simulator& simulator, net::Network& cluster_net,
               net::Host& host, sim::Rng rng, MemberServerParams params,
               MembershipBoard& board);

  net::NodeId id() const { return host_.id(); }

  /// Starts (or restarts) the daemon: multicast a join request; if nobody
  /// answers, form a singleton group.
  void start();

  /// --- fault hooks ---
  void on_host_crashed();

  /// Application NodeDown() report: the app observed that `node` is down
  /// even though the daemon-level ring may disagree; the group removes it.
  void node_down_report(net::NodeId node);

  const sim::NodeSet& view() const { return view_; }
  bool running() const { return running_; }

  std::function<void(const char* marker, net::NodeId about)> on_marker;

 private:
  bool host_ok() const { return host_.state() == net::Host::State::kUp; }
  bool ok() const { return running_ && host_ok(); }
  void mark(const char* m, net::NodeId about = net::kNoNode);

  void on_packet(const net::Packet& packet);
  void handle_heartbeat(const MHeartbeat& msg);
  void handle_propose(const ProposeChange& msg, net::NodeId from);
  void handle_ack(const AckChange& msg);
  void handle_commit(const CommitChange& msg, net::NodeId coordinator);
  void handle_join_request(const JoinRequest& msg);
  void handle_alive(const AliveAnnounce& msg);

  void arm_heartbeat_timer();
  void arm_monitor_timer();
  void arm_announce_timer();
  void send_heartbeats();
  void check_neighbours();
  sim::Time suspect_deadline(net::NodeId neighbour) const;
  std::vector<net::NodeId> neighbours() const;

  void coordinate_change(bool add, net::NodeId subject, sim::NodeSet extra);
  void arm_proposal_timer(std::uint64_t change_id, int attempt);
  void finish_proposal(std::uint64_t change_id);
  void install_view(const sim::NodeSet& members);
  void publish();
  void send_unicast(net::NodeId dst, MemberMsg msg);
  void send_multicast(MemberMsg msg);

  sim::Simulator& sim_;
  net::Network& net_;
  net::Host& host_;
  sim::Rng rng_;
  MemberServerParams p_;
  MembershipBoard& board_;

  bool running_ = false;
  std::uint64_t epoch_ = 0;
  sim::NodeSet view_;
  std::uint64_t view_version_ = 0;
  /// Heartbeat state for one peer.
  struct Heard {
    static constexpr sim::Time kNever = -1;
    /// Its last heartbeat, or the start of its grace period; kNever until
    /// it is first watched.
    sim::Time last_seen = kNever;
    /// Smoothed heartbeat inter-arrival (accrual detector state); kNever
    /// until a second heartbeat measures one.
    sim::Time ewma = kNever;
  };
  /// By NodeId; grows on first use. A reference into it is invalidated by
  /// the next heard() call.
  std::vector<Heard> heard_;
  Heard& heard(net::NodeId node);
  bool joined_ = false;

  struct Proposal {
    ProposeChange change;
    sim::NodeSet acks;
    bool done = false;
  };
  sim::IdRing<Proposal> proposals_;  // by change id
  std::uint64_t next_change_ = 1;
  // Subjects with an in-flight removal, to avoid proposal storms.
  sim::NodeSet removing_;
};

}  // namespace availsim::membership
