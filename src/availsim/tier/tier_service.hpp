#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "availsim/disk/disk.hpp"
#include "availsim/net/network.hpp"
#include "availsim/sim/id_ring.hpp"
#include "availsim/sim/rng.hpp"
#include "availsim/workload/http.hpp"

namespace availsim::tier {

/// A minimal clustered 3-tier service (web -> application -> database) on
/// the same simulation substrate, used to substantiate the paper's claim
/// (§2) that the 7-stage template generalizes beyond PRESS: "we have also
/// applied the same template to a 3-tier on-line bookstore based on the
/// TPC-W benchmark as well as a clustered 3-tier auction service."
///
/// Topology: stateless web nodes (round-robin DNS), application nodes
/// (web picks one round-robin per request), and one database node whose
/// disk serves a fraction of the queries. Tiers talk over the
/// intra-cluster fabric; faults on any tier propagate downstream exactly
/// like PRESS's cooperation faults: a wedged database stalls every
/// application node's pending queries.

struct TierParams {
  int web_nodes = 2;
  int app_nodes = 2;
  sim::Time web_cpu = 300 * sim::kMicrosecond;
  sim::Time app_cpu = 1200 * sim::kMicrosecond;
  sim::Time db_cpu = 400 * sim::kMicrosecond;
  /// Fraction of queries that miss the DB buffer pool and hit its disk.
  double db_disk_fraction = 0.10;
  disk::DiskParams db_disk;
  int max_concurrent = 200;
  sim::Time request_shed_age = 6 * sim::kSecond;
};

namespace ports {
inline constexpr int kWeb = 60;   // client -> web
inline constexpr int kApp = 61;   // web -> app
inline constexpr int kDb = 62;    // app -> db
inline constexpr int kAppReply = 63;
inline constexpr int kDbReply = 64;
}  // namespace ports

/// One tier process: accepts work, spends CPU, forwards downstream (or
/// replies), with the same crash/hang fault surface as PRESS processes.
class TierNode {
 public:
  enum class Role { kWeb, kApp, kDb };

  TierNode(sim::Simulator& simulator, net::Network& cluster,
           net::Network& client_net, net::Host& host, sim::Rng rng,
           Role role, TierParams params, disk::Disk* db_disk);

  net::NodeId id() const { return host_.id(); }
  Role role() const { return role_; }

  void set_downstream(std::vector<net::NodeId> downstream);
  void start();
  void crash_process();
  void hang_process();
  void unhang_process();
  void on_host_crashed() { crash_process(); }

  bool process_up() const { return process_up_; }
  bool hung() const { return hung_; }
  std::uint64_t served() const { return served_; }

 private:
  struct PendingDownstream {
    workload::HttpRequest request;
    sim::Time deadline;
  };

  bool ok() const {
    return process_up_ && !hung_ &&
           host_.state() == net::Host::State::kUp;
  }
  /// Runs `fn` on this node's CPU after `cost` service time. A template so
  /// the event captures `fn` itself, as PressNode::schedule_cpu does.
  template <typename F>
  void schedule_cpu(sim::Time cost, F&& fn);
  void on_request(const net::Packet& packet);
  void on_reply(const net::Packet& packet);
  void finish(const workload::HttpRequest& request);
  void arm_sweeper();

  sim::Simulator& sim_;
  net::Network& cluster_;
  net::Network& client_net_;
  net::Host& host_;
  sim::Rng rng_;
  Role role_;
  TierParams p_;
  disk::Disk* db_disk_;
  std::vector<net::NodeId> downstream_;
  std::size_t rr_ = 0;
  bool process_up_ = false;
  bool hung_ = false;
  std::uint64_t epoch_ = 0;
  sim::Time cpu_free_ = 0;
  int active_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t next_tag_ = 1;
  // By tag. Deadlines grow with the tag, so the sweep walks from the front.
  sim::IdRing<PendingDownstream> pending_;
  std::deque<net::Packet> backlog_;
};

template <typename F>
void TierNode::schedule_cpu(sim::Time cost, F&& fn) {
  cpu_free_ = std::max(sim_.now(), cpu_free_) + cost;
  sim_.schedule_at(cpu_free_,
                   [this, e = epoch_, fn = std::forward<F>(fn)]() mutable {
                     if (epoch_ != e || !ok()) return;
                     fn();
                   });
}

}  // namespace availsim::tier
