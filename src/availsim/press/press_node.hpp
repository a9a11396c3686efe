#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "availsim/disk/disk.hpp"
#include "availsim/net/network.hpp"
#include "availsim/press/cache.hpp"
#include "availsim/press/directory.hpp"
#include "availsim/press/messages.hpp"
#include "availsim/press/params.hpp"
#include "availsim/qmon/qmon.hpp"
#include "availsim/sim/event_fn.hpp"
#include "availsim/sim/id_ring.hpp"
#include "availsim/sim/node_set.hpp"
#include "availsim/sim/rng.hpp"
#include "availsim/sim/simulator.hpp"
#include "availsim/workload/http.hpp"

namespace availsim::press {

/// One PRESS server process.
///
/// Mirrors the paper's software architecture: one coordinating thread that
/// "never blocks" on I/O thanks to helper threads — but which *does* block
/// when an internal queue (a peer send queue or a disk queue) is full.
/// That blocking is the fault-propagation mechanism the paper studies: a
/// wedged peer stops draining its connections, the send queues to it fill,
/// and every cooperating node grinds to a halt.
///
/// Thread model in the simulator:
///  * "main loop" work (request parsing, routing, serving) runs only when
///    the process is up, not hung, not blocked, and the host is up;
///    otherwise it parks in a backlog, exactly like bytes accumulating in
///    kernel socket buffers.
///  * "helper thread" work (heartbeat receive, membership control) runs
///    whenever the process is up and not hung, even while the main loop is
///    blocked — this is what lets a stalled cluster still excise a wedged
///    peer.
class PressNode {
 public:
  /// Upper bound on main-loop input parked while blocked or hung (finite
  /// socket buffers; overflow traffic is shed and clients time out).
  static constexpr std::size_t kBacklogCapacity = 4096;

  struct Stats {
    std::uint64_t served_local_cache = 0;
    std::uint64_t served_local_disk = 0;
    std::uint64_t served_remote = 0;  // as service node for a peer
    std::uint64_t forwards_sent = 0;
    std::uint64_t forward_replies = 0;
    std::uint64_t forward_failures = 0;
    std::uint64_t rerouted = 0;
    std::uint64_t rerouted_slow = 0;  // slow-peer (service-age) reroutes
    std::uint64_t shed_stale = 0;
    std::uint64_t dropped_overload = 0;
    std::uint64_t dropped_nonmember = 0;
    std::uint64_t exclusions = 0;
    std::uint64_t self_exclusions = 0;
    std::uint64_t qmon_failures = 0;
    std::uint64_t rejoins = 0;
    std::uint64_t blocked_episodes = 0;
  };

  PressNode(sim::Simulator& simulator, net::Network& cluster_net,
            net::Network& client_net, net::Host& host, sim::Rng rng,
            PressParams params, workload::FileSet files,
            std::vector<net::NodeId> configured_nodes,
            std::vector<disk::Disk*> disks);

  net::NodeId id() const { return host_.id(); }

  /// (Re)starts the server process: cold cache, fresh cooperation state,
  /// ports bound, rejoin broadcast (internal-ring mode).
  ///
  /// `prewarm` models the paper's pre-measurement warm-up: the most
  /// popular files are pre-placed disjointly across the configured nodes
  /// (each node caching its share, directories primed to match). Only the
  /// testbed's boot-time start uses it; every mid-run process restart is
  /// cold, so the post-reset warm-up stage stays real.
  void start(bool prewarm = false);

  /// --- fault hooks (driven by the testbed) ---
  void crash_process();   // application crash: all process state lost
  void hang_process();    // application hang: every thread stuck
  void unhang_process();  // transient hang clears; stale state remains
  void on_host_crashed(); // node crash: host already cleared our ports
  void resume_after_thaw();  // node freeze ended; paused work resumes

  /// --- external membership (robust membership client callbacks) ---
  void node_in(net::NodeId node);
  void node_out(net::NodeId node);
  /// PRESS -> membership NodeDown() report (wired in MEM/MQ/FME configs).
  std::function<void(net::NodeId)> report_node_down;

  /// --- introspection ---
  bool process_up() const { return process_up_; }
  bool hung() const { return hung_; }
  bool blocked() const { return blocked_; }
  const sim::NodeSet& coop_set() const { return coop_; }
  int load() const { return active_requests_; }
  const Stats& stats() const { return stats_; }
  const LruCache& cache() const { return cache_; }
  const Directory& directory() const { return dir_; }

  /// Marker stream for the measurement harness ("exclude", "blocked",
  /// "rejoined", ...).
  std::function<void(const char* marker, net::NodeId about)> on_marker;

 private:
  // --- guards / thread model ---
  bool host_ok() const { return host_.state() == net::Host::State::kUp; }
  bool helper_ok() const { return process_up_ && !hung_ && host_ok(); }
  bool main_ok() const { return helper_ok() && !blocked_; }
  void mark(const char* m, net::NodeId about = net::kNoNode);

  /// Intake for every port: drops the packet if the process is down,
  /// parks it while the thread that reads its port cannot run, and
  /// otherwise hands it to the port's handler.
  void receive(const net::Packet& packet);
  /// Runs `fn` on the coordinating thread's CPU after `cost` service time;
  /// parks it if the main loop cannot run when its turn comes. A template
  /// so the event captures `fn` itself: a type-erased callable nested
  /// inside the EventFn would not fit its inline buffer.
  template <typename F>
  void schedule_cpu(sim::Time cost, F&& fn);
  void drain_paused();
  void drain_backlog();
  void block_main(const char* reason, std::function<bool()> retry);
  void try_unblock();
  void arm_block_retry();

  // --- request path ---
  void on_http(const net::Packet& packet);
  void prewarm_cache();
  void route(const workload::HttpRequest& request);
  /// True when a request sent at `sent_at` is older than the client waits.
  bool stale(sim::Time sent_at) const;
  std::size_t disk_index(workload::FileId file) const;
  /// Serves `request` from the cache if it is there, else from disk.
  void serve_here(const workload::HttpRequest& request);
  void serve_local_hit(const workload::HttpRequest& request);
  void serve_from_disk(const workload::HttpRequest& request);
  /// Reads `file` from its disk, then runs `then` on the coordinating CPU.
  /// A full disk queue blocks the coordinating thread until it has room.
  template <typename F>
  void read_from_disk(workload::FileId file, F then);
  void reply_to_client(const workload::HttpRequest& request);
  void insert_cache_and_broadcast(workload::FileId file);
  bool load_allows_forward(net::NodeId peer) const;
  void forward_to(net::NodeId peer, const workload::HttpRequest& request,
                  bool allow_reroute);
  /// Queues `request` for `peer`. Once queued it is a pending forward, and
  /// the queue either fails the peer (past qmon's threshold) or is pumped.
  qmon::SelfMonitoringQueue::PushResult push_forward(
      net::NodeId peer, const workload::HttpRequest& request);
  void reroute(const workload::HttpRequest& request, net::NodeId avoid);

  // --- intra-cluster ---
  void on_forward_request(const net::Packet& packet);
  void on_forward_reply(const net::Packet& packet);
  void on_forward_ack(const net::Packet& packet);
  void on_cache_update(const net::Packet& packet);
  void on_cache_snapshot(const net::Packet& packet);
  void pump_queue(net::NodeId peer);
  void on_forward_refused(net::NodeId peer, std::uint64_t forward_id);
  void fail_forward_ids(const std::vector<std::uint64_t>& ids);
  /// The send queue to `peer`, built on first use.
  qmon::SelfMonitoringQueue& sendq(net::NodeId peer);
  void qmon_fail(net::NodeId peer);
  void send_control(net::NodeId dst, int port,
                    std::shared_ptr<const void> body, std::size_t bytes,
                    bool reliable);

  // --- membership: internal ring ---
  void on_heartbeat(const net::Packet& packet);
  void on_control(const net::Packet& packet);
  void arm_heartbeat_timer();
  void arm_monitor_timer();
  void arm_rejoin_timer();
  void arm_forward_sweeper();
  void send_heartbeat();
  void check_predecessor();
  void initiate_exclusion(net::NodeId target);
  void exclude_node(net::NodeId target);
  void send_rejoin_request();
  void handle_rejoin_request(const RejoinRequest& msg);
  void handle_rejoin_reply(const RejoinReply& msg);
  void handle_join_announce(const JoinAnnounce& msg);
  void send_snapshot(net::NodeId to);
  void add_member(net::NodeId node);
  void reset_heartbeat_grace();

  // --- environment ---
  sim::Simulator& sim_;
  net::Network& cluster_;
  net::Network& client_net_;
  net::Host& host_;
  sim::Rng rng_;
  PressParams p_;
  workload::FileSet files_;
  std::vector<net::NodeId> configured_;
  std::vector<disk::Disk*> disks_;

  // --- process state ---
  bool process_up_ = false;
  bool hung_ = false;
  bool blocked_ = false;
  const char* block_reason_ = "";
  std::function<bool()> block_retry_;
  std::uint64_t epoch_ = 0;

  // --- application state (reset on restart) ---
  LruCache cache_;
  Directory dir_;
  sim::NodeSet coop_;
  /// What this process knows about one peer.
  struct Peer {
    static constexpr sim::Time kNever = -1;
    std::optional<qmon::SelfMonitoringQueue> sendq;  // built on first use
    /// Its last heartbeat, or the start of its grace period; kNever until
    /// the ring first watches it.
    sim::Time last_heartbeat = kNever;
  };
  /// By NodeId. Ids are dense, and the table covers every configured id.
  std::vector<Peer> peers_;
  Peer& peer_state(net::NodeId node) {
    assert(node >= 0 && static_cast<std::size_t>(node) < peers_.size());
    return peers_[static_cast<std::size_t>(node)];
  }
  struct PendingForward {
    workload::HttpRequest request;
    net::NodeId peer = net::kNoNode;
    sim::Time deadline = 0;
  };
  // By forward id. Every deadline is the send time plus request_shed_age,
  // so deadlines grow with the id and the sweep walks from the front.
  sim::IdRing<PendingForward> forwards_;
  std::uint64_t next_forward_id_ = 1;
  std::deque<net::Packet> backlog_;
  std::deque<sim::EventFn> paused_;
  sim::Time cpu_free_ = 0;
  sim::Time last_progress_ = 0;
  int active_requests_ = 0;
  bool joined_once_ = false;

  Stats stats_;
};

template <typename F>
void PressNode::schedule_cpu(sim::Time cost, F&& fn) {
  // A limping host (gray fault) stretches every CPU service time; the
  // process still makes progress, still heartbeats, still answers pings.
  cost = static_cast<sim::Time>(static_cast<double>(cost) *
                                host_.slow_factor());
  cpu_free_ = std::max(sim_.now(), cpu_free_) + cost;
  auto run = [this, e = epoch_, fn = std::forward<F>(fn)]() mutable {
    if (epoch_ != e || !process_up_) return;
    if (!main_ok()) {
      paused_.emplace_back(std::move(fn));
      return;
    }
    last_progress_ = sim_.now();
    fn();
  };
  static_assert(sim::EventFn::stores_inline<decltype(run)>(),
                "CPU-step closure outgrows EventFn's inline buffer; every "
                "scheduled step would heap-allocate");
  sim_.schedule_at(cpu_free_, std::move(run));
}

}  // namespace availsim::press
