#include "availsim/press/press_node.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "availsim/trace/trace.hpp"

namespace availsim::press {

namespace {
using trace::Category;
using trace::Kind;

/// Every port a PRESS process reads.
constexpr int kPorts[] = {
    net::ports::kPressHttp,        net::ports::kPressIntra,
    net::ports::kPressFwdReply,    net::ports::kPressCacheUpdate,
    net::ports::kPressSnapshot,    net::ports::kPressHeartbeat,
    net::ports::kPressControl,     net::ports::kPressFwdAck};

/// Ports the coordinating thread reads; helper threads read the rest.
bool main_loop_port(int port) {
  return port == net::ports::kPressHttp || port == net::ports::kPressIntra ||
         port == net::ports::kPressFwdReply;
}
}  // namespace

PressNode::PressNode(sim::Simulator& simulator, net::Network& cluster_net,
                     net::Network& client_net, net::Host& host, sim::Rng rng,
                     PressParams params, workload::FileSet files,
                     std::vector<net::NodeId> configured_nodes,
                     std::vector<disk::Disk*> disks)
    : sim_(simulator),
      cluster_(cluster_net),
      client_net_(client_net),
      host_(host),
      rng_(std::move(rng)),
      p_(params),
      files_(files),
      configured_(std::move(configured_nodes)),
      disks_(std::move(disks)),
      cache_(params.cache_bytes, params.file_bytes) {
  assert(!disks_.empty());
  net::NodeId top = id();
  for (net::NodeId n : configured_) top = std::max(top, n);
  peers_.resize(static_cast<std::size_t>(top) + 1);
}

void PressNode::mark(const char* m, net::NodeId about) {
  if (on_marker) on_marker(m, about);
}

// ---------------------------------------------------------------------------
// Process lifecycle
// ---------------------------------------------------------------------------

void PressNode::start(bool prewarm) {
  if (!host_ok()) return;  // cannot start a process on a dead host
  ++epoch_;
  process_up_ = true;
  hung_ = false;
  blocked_ = false;
  block_retry_ = nullptr;
  cache_.clear();
  dir_ = Directory{};
  coop_.clear();
  for (Peer& p : peers_) p = Peer{};
  forwards_.clear();
  backlog_.clear();
  paused_.clear();
  active_requests_ = 0;
  joined_once_ = false;
  cpu_free_ = sim_.now();
  last_progress_ = sim_.now();
  for (auto* d : disks_) d->purge();

  for (int port : kPorts) {
    host_.bind(port, [this](const net::Packet& p) { receive(p); });
  }

  coop_.insert(id());
  if (p_.cooperative && p_.membership == PressParams::Membership::kNone) {
    // Static cooperation set (QMON-only configuration): no membership
    // protocol exists, so a starting process simply assumes the configured
    // cluster.
    for (net::NodeId n : configured_) coop_.insert(n);
  }

  arm_heartbeat_timer();
  arm_monitor_timer();
  arm_forward_sweeper();
  if (p_.cooperative &&
      p_.membership == PressParams::Membership::kInternalRing &&
      configured_.size() > 1) {
    send_rejoin_request();
    arm_rejoin_timer();
  }
  if (prewarm) prewarm_cache();
  trace::emit(sim_, Category::kPress, Kind::kPressStart, id(),
              static_cast<std::int64_t>(coop_.mask()));
  mark("start");
}

void PressNode::prewarm_cache() {
  // Boot-time warm-up shortcut: place the most popular files disjointly
  // across the configured nodes and prime the directory to match, exactly
  // the steady state a long warm-up run converges to. Mid-run restarts
  // never use this, so post-reset warm-up effects stay measurable.
  std::vector<net::NodeId> ids = configured_;
  std::sort(ids.begin(), ids.end());
  const std::size_t cap = cache_.capacity();
  if (!p_.cooperative || ids.size() < 2) {
    const int top = static_cast<int>(std::min<std::size_t>(
        cap, static_cast<std::size_t>(files_.count)));
    for (int f = top - 1; f >= 0; --f) cache_.insert(f);
    return;
  }
  const auto n = ids.size();
  const std::size_t me = static_cast<std::size_t>(
      std::find(ids.begin(), ids.end(), id()) - ids.begin());
  const int span = static_cast<int>(std::min<std::size_t>(
      n * cap, static_cast<std::size_t>(files_.count)));
  for (int f = span - 1; f >= 0; --f) {
    const std::size_t owner = static_cast<std::size_t>(f) % n;
    if (owner == me) {
      cache_.insert(f);
    } else {
      dir_.node_caches(ids[owner], f);
    }
  }
}

void PressNode::crash_process() {
  if (!process_up_) return;
  ++epoch_;
  process_up_ = false;
  hung_ = false;
  blocked_ = false;
  block_retry_ = nullptr;
  for (int port : kPorts) host_.unbind(port);
  for (auto* d : disks_) d->purge();  // the process's outstanding I/O dies
  backlog_.clear();
  paused_.clear();
  forwards_.clear();
  for (Peer& p : peers_) p = Peer{};
  coop_.clear();
  active_requests_ = 0;
  trace::emit(sim_, Category::kPress, Kind::kPressStop, id());
  mark("process_down");
}

void PressNode::hang_process() {
  if (!process_up_ || hung_) return;
  hung_ = true;
  trace::emit(sim_, Category::kPress, Kind::kPressHang, id());
  mark("hang");
}

void PressNode::unhang_process() {
  if (!process_up_ || !hung_) return;
  hung_ = false;
  trace::emit(sim_, Category::kPress, Kind::kPressUnhang, id());
  mark("unhang");
  drain_paused();
  drain_backlog();
}

void PressNode::on_host_crashed() { crash_process(); }

void PressNode::resume_after_thaw() {
  if (!process_up_ || hung_) return;
  drain_paused();
  drain_backlog();
}

// ---------------------------------------------------------------------------
// Coordinating-thread scheduling
// ---------------------------------------------------------------------------

void PressNode::receive(const net::Packet& packet) {
  if (!process_up_) return;
  // The coordinating thread reads requests, forwards and forward replies.
  // Helper threads read heartbeats, cache updates and control traffic, and
  // keep reading while the coordinating thread is blocked: that is how a
  // stalled cluster still excises a wedged peer. Input a thread cannot read
  // yet waits, like bytes in a kernel socket buffer.
  if (!(main_loop_port(packet.port) ? main_ok() : helper_ok())) {
    if (backlog_.size() < kBacklogCapacity) backlog_.push_back(packet);
    return;
  }
  switch (packet.port) {
    case net::ports::kPressHttp: on_http(packet); break;
    case net::ports::kPressIntra: on_forward_request(packet); break;
    case net::ports::kPressFwdReply: on_forward_reply(packet); break;
    case net::ports::kPressCacheUpdate: on_cache_update(packet); break;
    case net::ports::kPressSnapshot: on_cache_snapshot(packet); break;
    case net::ports::kPressHeartbeat: on_heartbeat(packet); break;
    case net::ports::kPressControl: on_control(packet); break;
    case net::ports::kPressFwdAck: on_forward_ack(packet); break;
    default: break;
  }
}

void PressNode::drain_paused() {
  // Incremental: resume parked work only while the main loop can run. A
  // re-block (e.g. the disk queue filling again) stops the drain with the
  // remainder still parked — rescheduling everything on every unblock is
  // quadratic under block/unblock churn.
  while (!paused_.empty() && main_ok()) {
    sim::EventFn fn = std::move(paused_.front());
    paused_.pop_front();
    last_progress_ = sim_.now();
    fn();
  }
}

void PressNode::drain_backlog() {
  while (!backlog_.empty() && main_ok()) {
    net::Packet pkt = std::move(backlog_.front());
    backlog_.pop_front();
    receive(pkt);
  }
}

void PressNode::block_main(const char* reason, std::function<bool()> retry) {
  if (blocked_) return;  // the single coordinating thread blocks once
  blocked_ = true;
  block_reason_ = reason;
  block_retry_ = std::move(retry);
  ++stats_.blocked_episodes;
  trace::emit(sim_, Category::kPress, Kind::kPressBlocked, id());
  mark("blocked");
  arm_block_retry();
}

void PressNode::arm_block_retry() {
  sim_.schedule_after(p_.blocked_retry_period, [this, e = epoch_] {
    if (epoch_ != e || !process_up_ || !blocked_) return;
    try_unblock();
    if (blocked_) arm_block_retry();
  });
}

void PressNode::try_unblock() {
  if (!blocked_) return;
  if (block_retry_ && !block_retry_()) return;
  blocked_ = false;
  block_retry_ = nullptr;
  last_progress_ = sim_.now();
  trace::emit(sim_, Category::kPress, Kind::kPressUnblocked, id());
  mark("unblocked");
  drain_paused();
  drain_backlog();
}

// ---------------------------------------------------------------------------
// Request path
// ---------------------------------------------------------------------------

std::size_t PressNode::disk_index(workload::FileId file) const {
  // Decorrelate striping from file ids (placement rules also key on file
  // id; a plain modulo aliases whole placement classes onto one spindle).
  const auto h = static_cast<std::uint64_t>(file) * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(h >> 32) % disks_.size();
}

bool PressNode::stale(sim::Time sent_at) const {
  return sent_at > 0 && sim_.now() - sent_at > p_.request_shed_age;
}

void PressNode::on_http(const net::Packet& packet) {
  const auto request = net::body_as<workload::HttpRequest>(packet);
  schedule_cpu(p_.cpu_parse, [this, request] { route(request); });
}

void PressNode::route(const workload::HttpRequest& request) {
  if (stale(request.sent_at)) {
    ++stats_.shed_stale;
    return;
  }
  if (cache_.touch(request.file)) {
    // Cache hits bypass admission: they cost a couple of milliseconds of
    // CPU and self-drain. Admission exists to protect the disks.
    ++active_requests_;
    serve_local_hit(request);
    return;
  }
  if (active_requests_ >= p_.max_concurrent) {
    ++stats_.dropped_overload;
    return;  // accept queue full; the client times out
  }
  ++active_requests_;
  if (p_.cooperative && coop_.size() > 1) {
    auto peer = dir_.best_service_node(request.file, coop_);
    if (peer && *peer != id() && load_allows_forward(*peer)) {
      forward_to(*peer, request, /*allow_reroute=*/true);
      return;
    }
  }
  serve_from_disk(request);
}

void PressNode::serve_here(const workload::HttpRequest& request) {
  if (cache_.touch(request.file)) {
    serve_local_hit(request);
  } else {
    serve_from_disk(request);
  }
}

void PressNode::serve_local_hit(const workload::HttpRequest& request) {
  schedule_cpu(p_.cpu_serve_local, [this, request] {
    ++stats_.served_local_cache;
    reply_to_client(request);
  });
}

template <typename F>
void PressNode::read_from_disk(workload::FileId file, F then) {
  disk::Disk* d = disks_[disk_index(file)];
  auto completion = [this, e = epoch_, then] {
    if (epoch_ != e || !process_up_) return;
    schedule_cpu(p_.cpu_disk_finish, then);
  };
  static_assert(sim::EventFn::stores_inline<decltype(completion)>(),
                "disk-read completion outgrows EventFn's inline buffer; every "
                "disk read would heap-allocate");
  if (d->submit(files_.file_bytes, completion)) return;
  // Disk queue full: the coordinating thread blocks trying to enqueue.
  // availlint: hot-ok(runs only on a full disk queue, once per blocked episode)
  block_main("disk_queue", [this, d, completion] {
    return d->submit(files_.file_bytes, completion);
  });
}

void PressNode::serve_from_disk(const workload::HttpRequest& request) {
  read_from_disk(request.file, [this, request] {
    insert_cache_and_broadcast(request.file);
    if (stale(request.sent_at)) {
      // The client gave up long ago; the read was wasted work.
      ++stats_.shed_stale;
      --active_requests_;
      return;
    }
    ++stats_.served_local_disk;
    reply_to_client(request);
  });
}

void PressNode::reply_to_client(const workload::HttpRequest& request) {
  client_net_.send(id(), request.client, request.reply_port, files_.file_bytes,
                   net::make_body<workload::HttpReply>(
                       workload::HttpReply{request.request_id}));
  --active_requests_;
}

void PressNode::insert_cache_and_broadcast(workload::FileId file) {
  const std::optional<workload::FileId> evicted = cache_.insert(file);
  if (!p_.cooperative) return;
  // Bodies are immutable and load() cannot change during the broadcast, so
  // every peer's copy of a message shares one body.
  const auto inserted =
      net::make_body<CacheUpdate>(CacheUpdate{file, true, load()});
  const auto eviction =
      evicted ? net::make_body<CacheUpdate>(CacheUpdate{*evicted, false, load()})
              : nullptr;
  // Broadcast in node-id order (NodeSet iteration order): the send order
  // schedules delivery events, so it must be layout-independent.
  for (net::NodeId peer : coop_) {
    if (peer == id()) continue;
    cluster_.send(id(), peer, net::ports::kPressCacheUpdate,
                  wire::kCacheUpdate, inserted);
    if (eviction) {
      cluster_.send(id(), peer, net::ports::kPressCacheUpdate,
                    wire::kCacheUpdate, eviction);
    }
  }
}

bool PressNode::load_allows_forward(net::NodeId peer) const {
  // Weak, relative gate: remote cache hits beat local disk reads even on a
  // busy peer, so PRESS keeps forwarding unless the peer is far more
  // loaded than we are. (A wedged peer's piggybacked load froze at its
  // last value, so traffic keeps flowing to it and the send queue builds —
  // the propagation the paper studies.)
  return dir_.load(peer) <=
         static_cast<double>(load()) * p_.load_local_bias + p_.load_local_slack;
}

void PressNode::forward_to(net::NodeId peer,
                           const workload::HttpRequest& request,
                           bool allow_reroute) {
  auto divert = [&] {
    if (allow_reroute) {
      reroute(request, peer);
    } else {
      serve_from_disk(request);
    }
  };
  auto& q = sendq(peer);
  if (q.over_slow_threshold(sim_.now()) && !q.admit_probe(rng_)) {
    // Hardened qmon: the peer is answering acks (so the window never
    // closes and the queue never builds) but its oldest forward has gone
    // unanswered too long — it is limping. Route around it, keeping the
    // probe trickle so recovery is noticed.
    ++stats_.rerouted_slow;
    trace::emit(sim_, Category::kQmon, Kind::kQueueSlowPeer, id(), peer);
    mark("slow_peer", peer);
    divert();
    return;
  }
  switch (push_forward(peer, request)) {
    case qmon::SelfMonitoringQueue::PushResult::kQueued:
      return;
    case qmon::SelfMonitoringQueue::PushResult::kReroute:
      ++stats_.rerouted;
      trace::emit(sim_, Category::kQmon, Kind::kQueueReroute, id(), peer,
                  static_cast<std::int64_t>(q.queued_requests()));
      divert();
      return;
    case qmon::SelfMonitoringQueue::PushResult::kWouldBlock:
      // Base PRESS (no queue monitoring): the coordinating thread blocks on
      // the full send queue — the whole node stalls until it drains or the
      // peer is excluded.
      // availlint: hot-ok(runs only on a full send queue, once per blocked episode)
      block_main("send_queue", [this, peer, request] {
        if (!coop_.contains(peer)) {
          // Peer excluded while we were blocked: serve it ourselves.
          serve_here(request);
          return true;
        }
        if (sendq(peer).at_block_capacity()) return false;
        return push_forward(peer, request) ==
               qmon::SelfMonitoringQueue::PushResult::kQueued;
      });
      return;
  }
}

qmon::SelfMonitoringQueue::PushResult PressNode::push_forward(
    net::NodeId peer, const workload::HttpRequest& request) {
  auto& q = sendq(peer);
  const std::uint64_t fid = next_forward_id_++;
  qmon::SelfMonitoringQueue::Entry entry;
  entry.port = net::ports::kPressIntra;
  entry.bytes = wire::kForwardRequest;
  entry.is_request = true;
  entry.request_id = fid;
  entry.body = net::make_body<ForwardRequest>(
      ForwardRequest{request.file, fid, id(), load(), request.sent_at});
  const auto result = q.push(std::move(entry), rng_);
  if (result != qmon::SelfMonitoringQueue::PushResult::kQueued) return result;
  trace::emit(sim_, Category::kQmon, Kind::kQueuePush, id(), peer,
              static_cast<std::int64_t>(q.queued_requests()),
              static_cast<std::int64_t>(q.queued_total()));
  forwards_.insert(
      fid, PendingForward{request, peer, sim_.now() + p_.request_shed_age});
  if (q.over_fail_threshold()) {
    qmon_fail(peer);
  } else {
    pump_queue(peer);
  }
  return result;
}

void PressNode::reroute(const workload::HttpRequest& request,
                        net::NodeId avoid) {
  // "Most requests destined for the overloaded queue are rerouted to other
  // cooperative peers or the disk queue."
  sim::NodeSet others = coop_;
  others.erase(avoid);
  others.erase(id());
  auto alt = dir_.best_service_node(request.file, others);
  if (alt && !sendq(*alt).over_reroute_threshold() &&
      !sendq(*alt).over_slow_threshold(sim_.now()) &&
      load_allows_forward(*alt)) {
    forward_to(*alt, request, /*allow_reroute=*/false);
    return;
  }
  serve_from_disk(request);
}

// ---------------------------------------------------------------------------
// Intra-cluster handlers
// ---------------------------------------------------------------------------

void PressNode::on_forward_request(const net::Packet& packet) {
  const auto msg = net::body_as<ForwardRequest>(packet);
  // The receive thread has read the forward off the connection: grant the
  // sender its flow-control credit immediately (reply comes much later).
  send_control(packet.src, net::ports::kPressFwdAck,
               net::make_body<ForwardAck>(ForwardAck{msg.forward_id, load()}),
               wire::kControl, /*reliable=*/false);
  if (!coop_.contains(msg.initial_node)) {
    // Forwards from nodes we no longer cooperate with are dropped silently;
    // the sender's window slot stays occupied, so its queue to us builds up
    // (this asymmetry is what makes one-sided exclusion so costly).
    ++stats_.dropped_nonmember;
    return;
  }
  dir_.set_load(msg.initial_node, msg.load);
  schedule_cpu(p_.cpu_serve_remote, [this, msg] {
    auto reply = [this, msg](bool success, std::size_t bytes) {
      send_control(msg.initial_node, net::ports::kPressFwdReply,
                   net::make_body<ForwardReply>(
                       ForwardReply{msg.forward_id, success, load()}),
                   bytes, /*reliable=*/true);
    };
    if (stale(msg.sent_at)) {
      ++stats_.shed_stale;
      reply(false, wire::kControl);
      return;
    }
    if (cache_.touch(msg.file)) {
      ++stats_.served_remote;
      reply(true, files_.file_bytes);
      return;
    }
    if (active_requests_ >= p_.max_concurrent) {
      ++stats_.dropped_overload;
      reply(false, wire::kControl);
      return;
    }
    // Directory thought we cache it but it was evicted: read it from our
    // disk, cache it, then reply. The read occupies a service slot.
    ++active_requests_;
    read_from_disk(msg.file, [this, msg, reply] {
      insert_cache_and_broadcast(msg.file);
      ++stats_.served_remote;
      --active_requests_;
      reply(true, files_.file_bytes);
    });
  });
}

void PressNode::on_forward_reply(const net::Packet& packet) {
  const auto msg = net::body_as<ForwardReply>(packet);
  dir_.set_load(packet.src, msg.load);
  if (auto& q = peer_state(packet.src).sendq) q->complete(msg.forward_id);
  const PendingForward* f = forwards_.find(msg.forward_id);
  if (f == nullptr) return;  // purged during an exclusion
  const workload::HttpRequest request = f->request;
  forwards_.erase(msg.forward_id);
  ++stats_.forward_replies;
  if (msg.success) {
    schedule_cpu(p_.cpu_relay_reply,
                 [this, request] { reply_to_client(request); });
  } else {
    serve_here(request);
  }
}

void PressNode::on_forward_ack(const net::Packet& packet) {
  const auto& ack = net::body_as<ForwardAck>(packet);
  dir_.set_load(packet.src, ack.load);
  if (auto& q = peer_state(packet.src).sendq) {
    q->credit(ack.forward_id);
    pump_queue(packet.src);
    // Credits may have drained the queue below its block threshold.
    if (blocked_) try_unblock();
  }
}

void PressNode::on_cache_update(const net::Packet& packet) {
  // Directory bookkeeping is receive-thread work: it stays fresh even
  // while the coordinating thread is blocked (only a hung process loses
  // it temporarily).
  const auto& msg = net::body_as<CacheUpdate>(packet);
  if (!coop_.contains(packet.src)) return;
  dir_.set_load(packet.src, msg.load);
  if (msg.cached) {
    dir_.node_caches(packet.src, msg.file);
  } else {
    dir_.node_evicts(packet.src, msg.file);
  }
}

void PressNode::on_cache_snapshot(const net::Packet& packet) {
  const auto& msg = net::body_as<CacheSnapshot>(packet);
  if (!coop_.contains(msg.owner)) return;
  dir_.install_snapshot(msg.owner, msg.files);
  dir_.set_load(msg.owner, msg.load);
}

qmon::SelfMonitoringQueue& PressNode::sendq(net::NodeId peer) {
  auto& q = peer_state(peer).sendq;
  if (!q) q.emplace(p_.qmon, p_.block_queue_capacity, p_.forward_window);
  return *q;
}

void PressNode::pump_queue(net::NodeId peer) {
  auto& sq = peer_state(peer).sendq;
  if (!sq) return;
  auto& q = *sq;
  while (auto entry = q.pop_transmittable(sim_.now())) {
    trace::emit(sim_, Category::kQmon, Kind::kQueuePop, id(), peer,
                static_cast<std::int64_t>(q.queued_requests()),
                static_cast<std::int64_t>(q.queued_total()));
    net::SendOptions options;
    options.reliable = true;
    if (entry->is_request) {
      ++stats_.forwards_sent;
      const std::uint64_t fid = entry->request_id;
      options.on_refused = [this, e = epoch_, peer, fid] {
        if (epoch_ != e || !process_up_) return;
        on_forward_refused(peer, fid);
      };
    }
    cluster_.send(id(), peer, entry->port, entry->bytes, entry->body,
                  std::move(options));
  }
}

void PressNode::on_forward_refused(net::NodeId peer, std::uint64_t forward_id) {
  // Helper-thread territory (a TCP RST): usable even while blocked, lost
  // while hung.
  if (hung_ || !host_ok()) return;
  if (auto& q = peer_state(peer).sendq) {
    q->credit(forward_id);
    q->complete(forward_id);
    pump_queue(peer);
  }
  const PendingForward* f = forwards_.find(forward_id);
  if (f == nullptr) return;
  const workload::HttpRequest request = f->request;
  forwards_.erase(forward_id);
  ++stats_.forward_failures;
  if (report_node_down) report_node_down(peer);
  // Fall back to serving the request ourselves.
  schedule_cpu(p_.cpu_control, [this, request] {
    if (stale(request.sent_at)) {
      ++stats_.shed_stale;
      --active_requests_;
      return;
    }
    serve_here(request);
  });
}

void PressNode::fail_forward_ids(const std::vector<std::uint64_t>& ids) {
  for (std::uint64_t fid : ids) {
    if (!forwards_.erase(fid)) continue;
    --active_requests_;
    ++stats_.forward_failures;
  }
}

void PressNode::qmon_fail(net::NodeId peer) {
  if (!coop_.contains(peer) || peer == id()) return;
  ++stats_.qmon_failures;
  {
    auto& q = sendq(peer);
    trace::emit(sim_, Category::kQmon, Kind::kQueueFail, id(), peer,
                static_cast<std::int64_t>(q.queued_requests()),
                static_cast<std::int64_t>(q.queued_total()));
  }
  mark("qmon_fail", peer);
  exclude_node(peer);
  if (report_node_down) report_node_down(peer);
}

void PressNode::send_control(net::NodeId dst, int port,
                             std::shared_ptr<const void> body,
                             std::size_t bytes, bool reliable) {
  net::SendOptions options;
  options.reliable = reliable;
  cluster_.send(id(), dst, port, bytes, std::move(body), std::move(options));
}

// ---------------------------------------------------------------------------
// Internal ring membership
// ---------------------------------------------------------------------------

void PressNode::on_heartbeat(const net::Packet& packet) {
  const auto& hb = net::body_as<Heartbeat>(packet);
  peer_state(hb.from).last_heartbeat = sim_.now();
  trace::emit(sim_, Category::kPress, Kind::kPressHbSeen, id(), hb.from);
  dir_.set_load(hb.from, hb.load);
}

void PressNode::on_control(const net::Packet& packet) {
  const auto& ctl = net::body_as<ControlMsg>(packet);
  std::visit(
      [this](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, Exclude>) {
          if (coop_.contains(msg.by)) exclude_node(msg.excluded);
        } else if constexpr (std::is_same_v<T, RejoinRequest>) {
          handle_rejoin_request(msg);
        } else if constexpr (std::is_same_v<T, RejoinReply>) {
          handle_rejoin_reply(msg);
        } else if constexpr (std::is_same_v<T, JoinAnnounce>) {
          handle_join_announce(msg);
        }
      },
      ctl.msg);
}

void PressNode::arm_heartbeat_timer() {
  sim_.schedule_after(p_.heartbeat_period, [this, e = epoch_] {
    if (epoch_ != e || !process_up_) return;
    send_heartbeat();
    arm_heartbeat_timer();
  });
}

void PressNode::send_heartbeat() {
  // Heartbeats come from the coordinating thread. A *wedged* coordinating
  // thread (blocked with no progress for a full heartbeat period — e.g. a
  // dead disk whose queue never drains) stops heartbeating, which is how
  // peers detect the wedge. A merely overloaded loop, which blocks and
  // unblocks while its disks drain, still gets its heartbeats out.
  if (p_.membership != PressParams::Membership::kInternalRing) return;
  if (!helper_ok() || coop_.size() < 2) return;
  if (!main_ok() && sim_.now() - last_progress_ > p_.heartbeat_period) return;
  send_control(coop_.after(id()), net::ports::kPressHeartbeat,
               net::make_body<Heartbeat>(Heartbeat{id(), load()}),
               wire::kHeartbeat, /*reliable=*/false);
}

void PressNode::arm_monitor_timer() {
  sim_.schedule_after(sim::kSecond, [this, e = epoch_] {
    if (epoch_ != e || !process_up_) return;
    if (helper_ok() &&
        p_.membership == PressParams::Membership::kInternalRing) {
      check_predecessor();
    }
    arm_monitor_timer();
  });
}

void PressNode::check_predecessor() {
  if (coop_.size() < 2) return;
  const net::NodeId pred = coop_.before(id());
  sim::Time& seen = peer_state(pred).last_heartbeat;
  if (seen == Peer::kNever) {
    seen = sim_.now();  // grace period for a new neighbour
    trace::emit(sim_, Category::kPress, Kind::kPressHbSeen, id(), pred);
    return;
  }
  const sim::Time deadline =
      p_.heartbeat_tolerance * p_.heartbeat_period + p_.heartbeat_period / 2;
  if (sim_.now() - seen > deadline) {
    initiate_exclusion(pred);
  }
}

void PressNode::initiate_exclusion(net::NodeId target) {
  trace::emit(sim_, Category::kPress, Kind::kPressDetect, id(), target);
  mark("detect_failure", target);
  // Tell everyone, including the target: if the target is actually alive
  // (a violated fault model), it will process its own exclusion later and
  // splinter off as a singleton sub-cluster.  Node-id order (NodeSet
  // iteration) keeps the event schedule layout-independent.
  for (net::NodeId peer : coop_) {
    if (peer == id()) continue;
    send_control(peer, net::ports::kPressControl,
                 net::make_body<ControlMsg>(
                     ControlMsg{Exclude{target, id()}}),
                 wire::kControl, /*reliable=*/false);
  }
  exclude_node(target);
}

void PressNode::exclude_node(net::NodeId target) {
  if (target == id()) {
    // We were presumed dead by the others. Continue alone (splinter).
    ++stats_.self_exclusions;
    mark("self_excluded");
    // Purge queues in node-id order and forget every peer.
    // fail_forward_ids() only retires forwards_ entries and bumps counters.
    for (std::size_t n = 0; n < peers_.size(); ++n) {
      if (auto& q = peers_[n].sendq) {
        fail_forward_ids(q->purge());
        trace::emit(sim_, Category::kQmon, Kind::kQueuePurge, id(),
                    static_cast<net::NodeId>(n));
      }
      peers_[n] = Peer{};
    }
    coop_.clear();
    coop_.insert(id());
    trace::emit(sim_, Category::kPress, Kind::kPressSelfExclude, id(), 0,
                static_cast<std::int64_t>(coop_.mask()));
    dir_ = Directory{};
    if (blocked_) try_unblock();
    return;
  }
  if (!coop_.erase(target)) return;
  ++stats_.exclusions;
  trace::emit(sim_, Category::kPress, Kind::kPressExclude, id(), target,
              static_cast<std::int64_t>(coop_.mask()));
  mark("exclude", target);
  dir_.remove_node(target);
  Peer& gone = peer_state(target);
  if (gone.sendq) {
    fail_forward_ids(gone.sendq->purge());
    trace::emit(sim_, Category::kQmon, Kind::kQueuePurge, id(), target);
  }
  gone = Peer{};
  reset_heartbeat_grace();
  if (blocked_) try_unblock();
}

void PressNode::reset_heartbeat_grace() {
  if (coop_.size() < 2) return;
  const net::NodeId pred = coop_.before(id());
  peer_state(pred).last_heartbeat = sim_.now();
  trace::emit(sim_, Category::kPress, Kind::kPressHbSeen, id(), pred);
}

void PressNode::arm_forward_sweeper() {
  // Forwards whose reply never comes (the peer wedged before answering)
  // release their service slot once the client has certainly given up.
  // The sweep runs on the coordinating thread: a *blocked* node cannot
  // recycle slots — the stall semantics of base PRESS stay intact.
  sim_.schedule_after(sim::kSecond, [this, e = epoch_] {
    if (epoch_ != e || !process_up_) return;
    // Deadlines grow with the forward id: the expired forwards are a
    // prefix of the ring, retired oldest first.
    while (main_ok() && !forwards_.empty() &&
           sim_.now() > forwards_.front().deadline) {
      const std::uint64_t fid = forwards_.front_id();
      if (auto& q = peer_state(forwards_.front().peer).sendq) {
        q->complete(fid);  // stop the service-age clock
      }
      forwards_.erase(fid);
      --active_requests_;
      ++stats_.forward_failures;
    }
    arm_forward_sweeper();
  });
}

void PressNode::arm_rejoin_timer() {
  sim_.schedule_after(p_.rejoin_retry_period, [this, e = epoch_] {
    if (epoch_ != e || !process_up_) return;
    if (p_.membership == PressParams::Membership::kInternalRing &&
        coop_.size() == 1 && main_ok()) {
      send_rejoin_request();
    }
    if (coop_.size() == 1) arm_rejoin_timer();
  });
}

void PressNode::send_rejoin_request() {
  for (net::NodeId peer : configured_) {
    if (peer == id()) continue;
    send_control(peer, net::ports::kPressControl,
                 net::make_body<ControlMsg>(
                     ControlMsg{RejoinRequest{id()}}),
                 wire::kControl, /*reliable=*/true);
  }
}

void PressNode::handle_rejoin_request(const RejoinRequest& msg) {
  if (p_.membership != PressParams::Membership::kInternalRing) return;
  if (msg.joiner == id()) return;
  // "The currently active node with lowest node ID responds."
  if (id() != *coop_.begin()) return;
  RejoinReply reply;
  reply.members = coop_;
  send_control(msg.joiner, net::ports::kPressControl,
               net::make_body<ControlMsg>(ControlMsg{std::move(reply)}),
               wire::kControl, /*reliable=*/true);
}

void PressNode::handle_rejoin_reply(const RejoinReply& msg) {
  if (coop_.size() > 1) return;  // already (re)joined
  for (net::NodeId m : msg.members) add_member(m);
  // Announce in node-id order so the send schedule is layout-independent.
  for (net::NodeId m : coop_) {
    if (m == id()) continue;
    send_control(m, net::ports::kPressControl,
                 net::make_body<ControlMsg>(ControlMsg{JoinAnnounce{id()}}),
                 wire::kControl, /*reliable=*/true);
  }
  joined_once_ = true;
  ++stats_.rejoins;
  trace::emit(sim_, Category::kPress, Kind::kPressRejoin, id(), 0,
              static_cast<std::int64_t>(coop_.mask()));
  mark("rejoined");
  reset_heartbeat_grace();
}

void PressNode::handle_join_announce(const JoinAnnounce& msg) {
  add_member(msg.joiner);
  mark("member_joined", msg.joiner);
  send_snapshot(msg.joiner);
}

void PressNode::send_snapshot(net::NodeId to) {
  CacheSnapshot snap;
  snap.owner = id();
  snap.files = cache_.resident();
  snap.load = load();
  const std::size_t bytes = wire::snapshot_bytes(snap.files.size());
  send_control(to, net::ports::kPressSnapshot,
               net::make_body<CacheSnapshot>(std::move(snap)), bytes,
               /*reliable=*/true);
}

void PressNode::add_member(net::NodeId node) {
  if (node == id()) return;
  if (coop_.insert(node)) {
    trace::emit(sim_, Category::kPress, Kind::kPressAddMember, id(), node,
                static_cast<std::int64_t>(coop_.mask()));
    reset_heartbeat_grace();
  }
}

// ---------------------------------------------------------------------------
// External membership callbacks
// ---------------------------------------------------------------------------

void PressNode::node_in(net::NodeId node) {
  if (!process_up_ || p_.membership != PressParams::Membership::kExternal) {
    return;
  }
  if (node == id()) return;
  if (!coop_.insert(node)) return;
  trace::emit(sim_, Category::kPress, Kind::kPressAddMember, id(), node,
              static_cast<std::int64_t>(coop_.mask()));
  mark("node_in", node);
  send_snapshot(node);
}

void PressNode::node_out(net::NodeId node) {
  if (!process_up_ || p_.membership != PressParams::Membership::kExternal) {
    return;
  }
  mark("node_out", node);
  exclude_node(node);
}

}  // namespace availsim::press
