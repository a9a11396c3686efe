#include "availsim/membership/member_server.hpp"

#include <algorithm>
#include <utility>

#include "availsim/trace/trace.hpp"

namespace availsim::membership {

namespace {
constexpr std::size_t kSmallMsg = 96;

using trace::Category;
using trace::Kind;
}  // namespace

MemberServer::MemberServer(sim::Simulator& simulator,
                           net::Network& cluster_net, net::Host& host,
                           sim::Rng rng, MemberServerParams params,
                           MembershipBoard& board)
    : sim_(simulator),
      net_(cluster_net),
      host_(host),
      rng_(std::move(rng)),
      p_(params),
      board_(board) {}

void MemberServer::mark(const char* m, net::NodeId about) {
  if (on_marker) on_marker(m, about);
}

void MemberServer::start() {
  if (!host_ok()) return;
  ++epoch_;
  running_ = true;
  view_.clear();
  view_.insert(id());
  view_version_ = 0;
  heard_.clear();
  proposals_.clear();
  removing_.clear();
  joined_ = false;

  host_.bind(net::ports::kMembership,
             [this](const net::Packet& p) { on_packet(p); });
  host_.bind(net::ports::kMembershipJoin,
             [this](const net::Packet& p) { on_packet(p); });
  net_.multicast_join(kMembershipMulticastGroup, id());

  publish();
  send_multicast(MemberMsg{JoinRequest{id()}});
  // If nobody answers, we are the first daemon: form a singleton group.
  sim_.schedule_after(p_.join_timeout, [this, e = epoch_] {
    if (epoch_ != e || !running_) return;
    if (!joined_) {
      joined_ = true;
      mark("group_formed");
    }
  });

  arm_heartbeat_timer();
  arm_monitor_timer();
  arm_announce_timer();
  trace::emit(sim_, Category::kMembership, Kind::kMemStart, id(),
              static_cast<std::int64_t>(trace::node_bit(id())));
  mark("daemon_start");
}

void MemberServer::on_host_crashed() {
  if (!running_) return;
  ++epoch_;
  running_ = false;
  proposals_.clear();
  removing_.clear();
  trace::emit(sim_, Category::kMembership, Kind::kMemStop, id());
  // The host already dropped our port bindings; the multicast subscription
  // is a switch-side state that persists, which is harmless (packets to a
  // dead host are dropped).
}

void MemberServer::publish() {
  board_.publish(view_);
}

void MemberServer::send_unicast(net::NodeId dst, MemberMsg msg) {
  net_.send(id(), dst, net::ports::kMembership, kSmallMsg,
            net::make_body<MemberMsg>(std::move(msg)));
}

void MemberServer::send_multicast(MemberMsg msg) {
  net_.multicast(id(), kMembershipMulticastGroup, net::ports::kMembershipJoin,
                 kSmallMsg, net::make_body<MemberMsg>(std::move(msg)));
}

void MemberServer::on_packet(const net::Packet& packet) {
  if (!ok()) return;
  const auto& wrapped = net::body_as<MemberMsg>(packet);
  std::visit(
      [this, &packet](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, MHeartbeat>) {
          handle_heartbeat(msg);
        } else if constexpr (std::is_same_v<T, ProposeChange>) {
          handle_propose(msg, packet.src);
        } else if constexpr (std::is_same_v<T, AckChange>) {
          handle_ack(msg);
        } else if constexpr (std::is_same_v<T, CommitChange>) {
          handle_commit(msg, packet.src);
        } else if constexpr (std::is_same_v<T, JoinRequest>) {
          handle_join_request(msg);
        } else if constexpr (std::is_same_v<T, AliveAnnounce>) {
          handle_alive(msg);
        }
      },
      wrapped.msg);
}

// ---------------------------------------------------------------------------
// Ring monitoring
// ---------------------------------------------------------------------------

std::vector<net::NodeId> MemberServer::neighbours() const {
  std::vector<net::NodeId> out;
  if (view_.size() < 2) return out;
  out.push_back(view_.after(id()));  // downstream
  if (view_.size() > 2) out.push_back(view_.before(id()));  // upstream
  return out;
}

void MemberServer::arm_heartbeat_timer() {
  sim_.schedule_after(p_.heartbeat_period, [this, e = epoch_] {
    if (epoch_ != e || !running_) return;
    if (host_ok()) send_heartbeats();
    arm_heartbeat_timer();
  });
}

void MemberServer::send_heartbeats() {
  for (net::NodeId nb : neighbours()) {
    send_unicast(nb, MemberMsg{MHeartbeat{id(), view_version_}});
  }
}

void MemberServer::arm_monitor_timer() {
  sim_.schedule_after(p_.monitor_period, [this, e = epoch_] {
    if (epoch_ != e || !running_) return;
    if (host_ok()) check_neighbours();
    arm_monitor_timer();
  });
}

sim::Time MemberServer::suspect_deadline(net::NodeId neighbour) const {
  const sim::Time fixed =
      p_.heartbeat_tolerance * p_.heartbeat_period + p_.heartbeat_period / 2;
  if (!p_.hardened) return fixed;
  // Accrual detector: scale the deadline by the observed (smoothed)
  // inter-arrival time. A lossy link stretches inter-arrivals, so the
  // deadline stretches too; on a clean network the EWMA sits at the
  // heartbeat period and the floor keeps dead-node detection at seed
  // speed.
  sim::Time ewma = p_.heartbeat_period;
  if (const auto n = static_cast<std::size_t>(neighbour);
      n < heard_.size() && heard_[n].ewma != Heard::kNever) {
    ewma = heard_[n].ewma;
  }
  const auto accrual =
      static_cast<sim::Time>(p_.phi_threshold * static_cast<double>(ewma));
  return std::max(fixed, accrual);
}

void MemberServer::check_neighbours() {
  for (net::NodeId nb : neighbours()) {
    sim::Time& seen = heard(nb).last_seen;
    if (seen == Heard::kNever) {
      seen = sim_.now();  // grace for a new neighbour
      continue;
    }
    if (sim_.now() - seen > suspect_deadline(nb) &&
        !removing_.contains(nb)) {
      trace::emit(sim_, Category::kMembership, Kind::kMemSuspect, id(), nb);
      mark("suspect", nb);
      coordinate_change(/*add=*/false, nb, {});
    }
  }
}

MemberServer::Heard& MemberServer::heard(net::NodeId node) {
  const auto n = static_cast<std::size_t>(node);
  if (n >= heard_.size()) heard_.resize(n + 1);
  return heard_[n];
}

void MemberServer::handle_heartbeat(const MHeartbeat& msg) {
  Heard& h = heard(msg.from);
  if (p_.hardened && h.last_seen != Heard::kNever) {
    const sim::Time interval = sim_.now() - h.last_seen;
    h.ewma = h.ewma == Heard::kNever
                 ? interval
                 : static_cast<sim::Time>(
                       p_.ewma_alpha * static_cast<double>(interval) +
                       (1.0 - p_.ewma_alpha) * static_cast<double>(h.ewma));
  }
  h.last_seen = sim_.now();
}

// ---------------------------------------------------------------------------
// Two-phase-commit group changes
// ---------------------------------------------------------------------------

void MemberServer::coordinate_change(bool add, net::NodeId subject,
                                     sim::NodeSet extra) {
  if (!add && !view_.contains(subject)) return;
  if (add && view_.contains(subject) && extra.empty()) return;
  const std::uint64_t change_id =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id())) << 32) |
      next_change_++;
  ProposeChange change;
  change.add = add;
  change.subject = subject;
  change.proposer = id();
  change.change_id = change_id;
  change.extra = std::move(extra);
  proposals_.insert(change_id, Proposal{change, {}, false});
  if (!add) removing_.insert(subject);

  bool have_voters = false;
  for (net::NodeId m : view_) {
    if (m == id() || m == subject) continue;
    have_voters = true;
    send_unicast(m, MemberMsg{change});
  }
  if (!have_voters) {
    finish_proposal(change_id);
    return;
  }
  arm_proposal_timer(change_id, 0);
}

void MemberServer::arm_proposal_timer(std::uint64_t change_id, int attempt) {
  // Unhardened daemons take exactly one ack_timeout and close the vote
  // (seed behaviour). Hardened daemons retransmit the proposal to the
  // members whose ack may have been eaten by a lossy link, with doubling
  // backoff, before giving up on them.
  const sim::Time wait = p_.ack_timeout << attempt;
  sim_.schedule_after(wait, [this, e = epoch_, change_id, attempt] {
    if (epoch_ != e || !running_) return;
    const Proposal* prop = proposals_.find(change_id);
    if (prop == nullptr || prop->done) return;
    if (!p_.hardened || attempt >= p_.propose_retries) {
      finish_proposal(change_id);
      return;
    }
    for (net::NodeId m : view_) {
      if (m == id() || m == prop->change.subject) continue;
      if (prop->acks.contains(m)) continue;
      send_unicast(m, MemberMsg{prop->change});
    }
    arm_proposal_timer(change_id, attempt + 1);
  });
}

void MemberServer::handle_propose(const ProposeChange& msg, net::NodeId from) {
  // Phase 1 vote: a member acks any proposal from a peer it can hear. The
  // convergence argument relies on partitions being consistent (paper
  // §4.2), which the switched-LAN fabric guarantees.
  send_unicast(from, MemberMsg{AckChange{msg.change_id, id()}});
  if (!msg.add) removing_.insert(msg.subject);
}

void MemberServer::handle_ack(const AckChange& msg) {
  Proposal* prop = proposals_.find(msg.change_id);
  if (prop == nullptr || prop->done) return;
  prop->acks.insert(msg.from);
  // Commit as soon as every other live member acked.
  std::size_t voters = 0;
  for (net::NodeId m : view_) {
    if (m != id() && m != prop->change.subject) ++voters;
  }
  if (prop->acks.size() >= voters) finish_proposal(msg.change_id);
}

void MemberServer::finish_proposal(std::uint64_t change_id) {
  Proposal* prop = proposals_.find(change_id);
  if (prop == nullptr || prop->done) return;
  prop->done = true;
  const ProposeChange& change = prop->change;

  sim::NodeSet new_view = view_;
  if (change.add) {
    new_view.insert(change.subject);
    for (net::NodeId n : change.extra) new_view.insert(n);
  } else {
    new_view.erase(change.subject);
  }

  CommitChange commit;
  commit.add = change.add;
  commit.subject = change.subject;
  commit.change_id = change_id;
  commit.new_view = new_view;
  for (net::NodeId m : new_view) {
    if (m == id()) continue;
    send_unicast(m, MemberMsg{commit});
  }
  handle_commit(commit, id());
  proposals_.erase(change_id);
}

void MemberServer::handle_commit(const CommitChange& msg,
                                 net::NodeId coordinator) {
  // Only coordinators we currently recognise may rewrite our view; a
  // daemon resuming from a freeze with a stale view must not be able to
  // poison the healthy group. The one exception is a merge: a foreign
  // group's coordinator committing a view that *includes us* is the
  // re-admission path.
  const bool trusted = coordinator == id() || view_.contains(coordinator);
  const bool includes_us = msg.new_view.contains(id());
  if (!trusted && !(msg.add && includes_us)) return;  // not a readmission
  trace::emit(sim_, Category::kMembership, Kind::kMemCommit, id(),
              static_cast<std::int64_t>(msg.change_id),
              static_cast<std::int64_t>(msg.new_view.mask()), msg.add ? 1 : 0);
  if (!msg.add) removing_.erase(msg.subject);
  if (!includes_us) {
    // The group removed us (e.g. an application-level NodeDown report while
    // our daemon was healthy). Fall back to a singleton group; the periodic
    // announcements will merge us back once we are really healthy.
    install_view({id()});
    mark("removed_from_group");
    return;
  }
  install_view(msg.new_view);
  mark(msg.add ? "member_added" : "member_removed", msg.subject);
}

void MemberServer::install_view(const sim::NodeSet& members) {
  view_ = members;
  view_.insert(id());
  ++view_version_;
  joined_ = true;
  trace::emit(sim_, Category::kMembership, Kind::kMemViewInstall, id(),
              static_cast<std::int64_t>(view_.mask()), view_version_);
  // Grace: don't instantly suspect new neighbours.
  for (net::NodeId nb : neighbours()) heard(nb).last_seen = sim_.now();
  publish();
}

// ---------------------------------------------------------------------------
// Join & merge
// ---------------------------------------------------------------------------

void MemberServer::handle_join_request(const JoinRequest& msg) {
  if (msg.joiner == id()) return;
  // The lowest-id member of the group coordinates the add.
  if (id() != *view_.begin()) return;
  if (view_.contains(msg.joiner)) {
    // Stale join (e.g. the joiner restarted quickly): re-send it the view.
    CommitChange refresh;
    refresh.add = true;
    refresh.subject = msg.joiner;
    refresh.change_id = 0;
    refresh.new_view = view_;
    send_unicast(msg.joiner, MemberMsg{refresh});
    return;
  }
  coordinate_change(/*add=*/true, msg.joiner, {});
}

void MemberServer::arm_announce_timer() {
  // Stagger announcements so daemons don't phase-lock.
  const sim::Time jitter =
      static_cast<sim::Time>(rng_.uniform() * static_cast<double>(sim::kSecond));
  sim_.schedule_after(p_.announce_period + jitter, [this, e = epoch_] {
    if (epoch_ != e || !running_) return;
    if (host_ok()) {
      AliveAnnounce alive;
      alive.from = id();
      alive.members = view_;
      send_multicast(MemberMsg{std::move(alive)});
    }
    arm_announce_timer();
  });
}

void MemberServer::handle_alive(const AliveAnnounce& msg) {
  if (view_.contains(msg.from)) {
    // Anti-entropy over the same announcements: a member can diverge from
    // the group while staying *in* everyone's view — a flapping link eats a
    // commit but not enough heartbeats to get it suspected, or two
    // concurrent merge coordinators commit different unions and members
    // apply them in different orders. The lowest-id member repairs the
    // announcer.
    if (id() != *view_.begin()) return;
    sim::NodeSet theirs = msg.members;
    theirs.insert(msg.from);
    if (theirs == view_) return;
    sim::NodeSet extra;
    for (net::NodeId m : theirs) {
      if (!view_.contains(m)) extra.insert(m);
    }
    trace::emit(sim_, Category::kMembership, Kind::kMemMerge, id(), msg.from);
    mark("anti_entropy", msg.from);
    if (extra.empty()) {
      // Their view is a strict subset of ours: they missed a commit. Push
      // them the current view, the same refresh a stale joiner gets.
      CommitChange refresh;
      refresh.add = true;
      refresh.subject = msg.from;
      refresh.change_id = 0;
      refresh.new_view = view_;
      send_unicast(msg.from, MemberMsg{refresh});
    } else {
      // They hold members we lack: 2PC the union — the commit reaches the
      // announcer too, so both sides land on one view. If the extra members
      // are really dead the ring monitor removes them again.
      coordinate_change(/*add=*/true, msg.from, std::move(extra));
    }
    return;
  }
  // A daemon we can hear is not in our group: the groups should merge.
  // Our lowest-id member coordinates the union.
  if (id() != *view_.begin()) return;
  sim::NodeSet extra;
  for (net::NodeId m : msg.members) {
    if (!view_.contains(m) && m != msg.from) extra.insert(m);
  }
  trace::emit(sim_, Category::kMembership, Kind::kMemMerge, id(), msg.from);
  mark("merge", msg.from);
  coordinate_change(/*add=*/true, msg.from, std::move(extra));
}

// ---------------------------------------------------------------------------
// Application reports
// ---------------------------------------------------------------------------

void MemberServer::node_down_report(net::NodeId node) {
  if (!ok()) return;
  if (!view_.contains(node) || node == id()) return;
  if (removing_.contains(node)) return;
  trace::emit(sim_, Category::kMembership, Kind::kMemDownReport, id(), node);
  mark("node_down_report", node);
  coordinate_change(/*add=*/false, node, {});
}

}  // namespace availsim::membership
