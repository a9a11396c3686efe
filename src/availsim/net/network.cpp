#include "availsim/net/network.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <memory>
#include <utility>

#include "availsim/trace/trace.hpp"

namespace availsim::net {

Network::Network(sim::Simulator& simulator, sim::Rng rng, NetworkParams params)
    : sim_(simulator), rng_(std::move(rng)), params_(std::move(params)) {}

void Network::attach(Host& host) {
  assert(host.id() >= 0);
  const auto id = static_cast<std::size_t>(host.id());
  if (id >= links_.size()) links_.resize(id + 1);
  links_[id].host = &host;
  links_[id].up = true;
  links_[id].free_at = 0;
}

sim::Time Network::tx_time(std::size_t bytes) const {
  return static_cast<sim::Time>(static_cast<double>(bytes) * 8.0 /
                                params_.bandwidth_bps * sim::kSecond);
}

bool Network::link_up(NodeId id) const { return attached(id) && link(id).up; }

bool Network::path_up(NodeId a, NodeId b) const {
  if (a == b) return true;  // loopback never touches the fabric
  return switch_up_ && link_up(a) && link_up(b);
}

LinkQuality Network::link_quality(NodeId id) const {
  return attached(id) ? link(id).quality : LinkQuality{};
}

void Network::set_link_quality(NodeId id, LinkQuality quality) {
  LinkQuality& current = link(id).quality;
  if (quality.degraded()) {
    current = quality;
    trace::emit(sim_, trace::Category::kNet, trace::Kind::kLinkDegraded, id,
                static_cast<std::int64_t>(quality.loss * 1e6));
  } else if (current.degraded()) {
    current = LinkQuality{};
    trace::emit(sim_, trace::Category::kNet, trace::Kind::kLinkHealed, id);
  }
}

// A healthy link has loss 0, adds no latency and draws no jitter, so the
// two helpers below cost no RNG draw on a path with no sick link.
double Network::path_loss(NodeId src, NodeId dst) const {
  if (src == dst) return 0.0;
  return 1.0 - (1.0 - link(src).quality.loss) * (1.0 - link(dst).quality.loss);
}

sim::Time Network::path_degradation_delay(NodeId src, NodeId dst) {
  sim::Time extra = 0;
  for (NodeId end : {src, dst}) {
    const LinkQuality& q = link(end).quality;
    extra += q.extra_latency;
    if (q.extra_jitter > 0) extra += rng_.uniform_int(0, q.extra_jitter);
  }
  return extra;
}

sim::Time Network::retransmit_delay(double loss) {
  // Each lost attempt costs one RTO; the RTO doubles per consecutive loss.
  sim::Time delay = 0;
  sim::Time rto = params_.retransmit_timeout;
  while (rng_.uniform() < loss && delay < 60 * sim::kSecond) {
    delay += rto;
    rto *= 2;
  }
  return delay;
}

void Network::start_link_flap(NodeId id, sim::Time down_time,
                              sim::Time up_time) {
  FlapState& flap = link(id).flap;
  flap.on = true;
  flap.down_time = down_time;
  flap.up_time = up_time;
  ++flap.epoch;
  trace::emit(sim_, trace::Category::kNet, trace::Kind::kFlapStart, id);
  set_link_up(id, false);  // injection begins with the down phase
  arm_flap(id, /*down_next=*/false);
}

void Network::stop_link_flap(NodeId id) {
  FlapState& flap = link(id).flap;
  if (!flap.on) return;
  flap.on = false;
  trace::emit(sim_, trace::Category::kNet, trace::Kind::kFlapStop, id);
  set_link_up(id, true);
}

void Network::arm_flap(NodeId id, bool down_next) {
  const FlapState& flap = link(id).flap;
  const sim::Time phase = down_next ? flap.up_time : flap.down_time;
  sim_.schedule_after(phase, [this, id, down_next, e = flap.epoch] {
    const FlapState& f = link(id).flap;
    if (!f.on || f.epoch != e) return;  // flap stopped, or started anew
    set_link_up(id, !down_next);
    arm_flap(id, !down_next);
  });
}

void Network::send(NodeId src, NodeId dst, int port, std::size_t bytes,
                   std::shared_ptr<const void> body, SendOptions options) {
  assert(attached(src) && attached(dst));
  Packet packet{src, dst, port, bytes, std::move(body)};
  const RefusalId refusal = hold_refusal(options);
  transmit(std::move(packet), options.reliable, refusal);
}

RefusalId Network::hold_refusal(SendOptions& options) {
  if (!options.reliable || !options.on_refused) return kNoRefusal;
  if (free_refusals_.empty()) {
    refusals_.push_back(std::move(options.on_refused));
    return static_cast<RefusalId>(refusals_.size() - 1);
  }
  const RefusalId id = free_refusals_.back();
  free_refusals_.pop_back();
  refusals_[id] = std::move(options.on_refused);
  return id;
}

sim::EventFn Network::take_refusal(RefusalId id) {
  if (id == kNoRefusal) return {};
  free_refusals_.push_back(id);
  return std::move(refusals_[id]);
}

void Network::transmit(Packet packet, bool reliable, RefusalId refusal) {
  if (packet.src == packet.dst) {
    // Loopback: skip links and the switch entirely.
    schedule_delivery(sim_.now() + 10 * sim::kMicrosecond, std::move(packet),
                      refusal);
    return;
  }
  if (!path_up(packet.src, packet.dst)) {
    if (reliable) {
      parked_.push_back(Parked{std::move(packet), refusal});
    } else {
      ++dropped_;
    }
    return;
  }
  Link& sender = link(packet.src);
  // Uplink serialization: the packet leaves once the sender's link is free.
  const sim::Time start = std::max(sim_.now(), sender.free_at);
  const sim::Time tx = tx_time(packet.bytes);
  sender.free_at = start + tx;
  sim::Time arrive = start + tx + params_.base_latency;
  if (params_.max_jitter > 0) {
    arrive += rng_.uniform_int(0, params_.max_jitter);
  }
  const double loss = path_loss(packet.src, packet.dst);
  if (loss > 0.0) {
    if (!reliable) {
      // Datagrams crossing a sick link are simply gone (heartbeats,
      // multicasts, acks) — the gray regime the detectors must survive.
      if (rng_.uniform() < loss) {
        ++lost_;
        trace::emit(sim_, trace::Category::kNet, trace::Kind::kPacketLost,
                    packet.src, packet.dst, packet.port);
        return;
      }
    } else {
      // TCP masks the loss but pays for it in retransmission time: the
      // bytes arrive late, not never.
      arrive += retransmit_delay(loss);
    }
  }
  arrive += path_degradation_delay(packet.src, packet.dst);
  if (reliable) {
    // In order per flow: strictly after the flow's newest delivery.
    std::vector<sim::Time>& row = sender.last_delivery;
    const auto dst = static_cast<std::size_t>(packet.dst);
    if (dst >= row.size()) row.resize(links_.size());
    if (arrive <= row[dst]) arrive = row[dst] + 1;
    row[dst] = arrive;
  }
  schedule_delivery(arrive, std::move(packet), refusal);
}

void Network::schedule_delivery(sim::Time at, Packet packet,
                                RefusalId refusal) {
  auto delivery = [this, packet = std::move(packet), refusal] {
    deliver(packet, refusal);
  };
  // One of these per packet: it must never spill to the heap.
  static_assert(sim::EventFn::stores_inline<decltype(delivery)>());
  sim_.schedule_at(at, std::move(delivery));
}

void Network::deliver(const Packet& packet, RefusalId refusal) {
  // The send resolves here one way or another; take its callback first,
  // since the receiving process may send again and reuse the index.
  sim::EventFn on_refused = take_refusal(refusal);
  Host* dst = link(packet.dst).host;
  if (dst->state() == Host::State::kDown) {
    // A dead host is *silent*: no RST ever comes back, the sender's TCP
    // retransmits into the void and its window stays consumed — which is
    // exactly how a node crash jams its peers' send queues (the paper's
    // whole-cluster stall applies to crashes too, not just wedges).
    // Packets are not retransmitted after a reboot: the connections those
    // bytes belonged to are gone with the old incarnation.
    ++dropped_;
    return;
  }
  // A packet already in flight when a link fails is small (sub-millisecond
  // flight) so we deliver it; real outages last minutes.
  const bool accepted = dst->deliver(packet);
  if (accepted) {
    ++delivered_;
    return;
  }
  // Host up but no process owns the port: connection refused.
  ++dropped_;
  if (on_refused) {
    // TCP RST comes back one latency later.
    sim_.schedule_after(params_.base_latency, std::move(on_refused));
  }
}

void Network::ping_reply(std::uint64_t id, bool ok) {
  PingCallback* pending = pings_.find(id);
  if (pending == nullptr) return;  // already answered (or timed out)
  PingCallback cb = std::move(*pending);
  pings_.erase(id);
  cb(ok);
}

void Network::ping(NodeId src, NodeId dst, sim::Time timeout, PingCallback cb) {
  assert(attached(src) && attached(dst));
  // The callback lives in pings_ under a fresh id; the echo and timeout
  // closures capture only the id, so whichever fires first resolves the
  // ping and the other is a no-op.
  const std::uint64_t id = pings_.end_id();
  pings_.insert(id, std::move(cb));
  const sim::Time rtt = 2 * params_.base_latency + 2 * tx_time(64);

  // Echo request arrives one latency out; the reply needs the reverse path
  // up as well and the host answering (up, not frozen, not down). ICMP is
  // a datagram: each direction independently risks the sick-link loss.
  sim_.schedule_after(params_.base_latency, [this, src, dst, rtt, id] {
    if (!path_up(src, dst)) return;          // request or reply lost
    const double loss = path_loss(src, dst);
    if (loss > 0.0 &&
        (rng_.uniform() < loss || rng_.uniform() < loss)) {
      return;  // echo request or echo reply dropped on the sick link
    }
    Host* target = link(dst).host;
    if (target->state() != Host::State::kUp) return;  // no echo from a dead host
    const sim::Time degraded = path_degradation_delay(src, dst);
    sim_.schedule_after(rtt / 2 + degraded,
                        [this, id] { ping_reply(id, true); });
  });
  sim_.schedule_after(timeout, [this, id] { ping_reply(id, false); });
}

void Network::multicast_join(int group, NodeId id) { groups_[group].insert(id); }

void Network::multicast(NodeId src, int group, int port, std::size_t bytes,
                        std::shared_ptr<const void> body) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  for (NodeId member : it->second) {
    if (member == src) continue;
    Packet packet{src, member, port, bytes, body};
    transmit(std::move(packet), /*reliable=*/false, kNoRefusal);
  }
}

void Network::set_link_up(NodeId id, bool up) {
  bool& is_up = link(id).up;
  const bool was = is_up;
  is_up = up;
  if (up != was) {
    trace::emit(sim_, trace::Category::kNet,
                up ? trace::Kind::kLinkUp : trace::Kind::kLinkDown, id);
  }
  if (up && !was && switch_up_) flush(id);
}

void Network::set_switch_up(bool up) {
  const bool was = switch_up_;
  switch_up_ = up;
  if (up != was) {
    trace::emit(sim_, trace::Category::kNet,
                up ? trace::Kind::kSwitchUp : trace::Kind::kSwitchDown, -1);
  }
  if (up && !was) flush(kNoNode);
}

void Network::flush(NodeId node) {
  // Take the due sends out first: a retransmit that finds its path still
  // down parks again behind every send that stays parked.
  const auto stays = [node](const Parked& p) {
    return node != kNoNode && p.packet.src != node && p.packet.dst != node;
  };
  const auto due = std::stable_partition(parked_.begin(), parked_.end(), stays);
  std::vector<Parked> sends(std::make_move_iterator(due),
                            std::make_move_iterator(parked_.end()));
  parked_.erase(due, parked_.end());
  for (Parked& p : sends) {
    transmit(std::move(p.packet), /*reliable=*/true, p.refusal);
  }
}

}  // namespace availsim::net
