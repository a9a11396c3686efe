// Protocol-level tests of PressNode on a hand-wired mini-cluster (no
// harness): forwarding, cache-directory coherence, ring membership,
// rejoin, and the coordinating-thread blocking semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "availsim/net/network.hpp"
#include "availsim/press/press_node.hpp"
#include "availsim/trace/auditor.hpp"
#include "availsim/trace/trace.hpp"
#include "availsim/workload/http.hpp"

namespace availsim::press {
namespace {

class MiniCluster : public ::testing::Test {
 protected:
  static constexpr int kNodes = 3;

  /// Nodes get ids first_id, first_id + 1 and first_id + 2.
  explicit MiniCluster(net::NodeId first_id = 0)
      : cluster_net_(sim_, sim::Rng(1), net_params()),
        client_net_(sim_, sim::Rng(2), net_params()) {
    PressParams params;
    params.cache_bytes = 100 * params.file_bytes;  // 100 files per node
    workload::FileSet files;
    files.count = 1000;

    std::vector<net::NodeId> ids{first_id, first_id + 1, first_id + 2};
    for (int i = 0; i < kNodes; ++i) {
      hosts_.push_back(std::make_unique<net::Host>(sim_, ids[i], "n"));
      cluster_net_.attach(*hosts_.back());
      client_net_.attach(*hosts_.back());
      for (int d = 0; d < 2; ++d) {
        disks_.push_back(std::make_unique<disk::Disk>(sim_, params.disk));
      }
      nodes_.push_back(std::make_unique<PressNode>(
          sim_, cluster_net_, client_net_, *hosts_.back(), sim::Rng(10 + i),
          params, files, ids,
          std::vector<disk::Disk*>{disks_[2 * i].get(),
                                   disks_[2 * i + 1].get()}));
    }
    client_host_ = std::make_unique<net::Host>(sim_, 9, "client");
    client_net_.attach(*client_host_);
    client_host_->bind(net::ports::kClientReply, [this](const net::Packet& p) {
      replies_.push_back(net::body_as<workload::HttpReply>(p).request_id);
    });
  }

  static net::NetworkParams net_params() {
    net::NetworkParams p;
    p.max_jitter = 0;
    return p;
  }

  /// Boots all three processes (staggered like the testbed does).
  void boot() {
    for (int i = 0; i < kNodes; ++i) {
      sim_.schedule_after(i * 2 * sim::kSecond,
                          [this, i] { nodes_[i]->start(); });
    }
    sim_.run_until(10 * sim::kSecond);
  }

  void request(int node, workload::FileId file, std::uint64_t id) {
    workload::HttpRequest r;
    r.file = file;
    r.client = client_host_->id();
    r.request_id = id;
    r.sent_at = sim_.now();
    net::SendOptions o;
    o.reliable = true;
    client_net_.send(client_host_->id(), node, net::ports::kPressHttp,
                     workload::kHttpRequestBytes,
                     net::make_body<workload::HttpRequest>(r), std::move(o));
  }

  sim::Simulator sim_;
  net::Network cluster_net_;
  net::Network client_net_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<disk::Disk>> disks_;
  std::vector<std::unique_ptr<PressNode>> nodes_;
  std::unique_ptr<net::Host> client_host_;
  std::vector<std::uint64_t> replies_;
};

TEST_F(MiniCluster, RingFormsViaRejoinBroadcast) {
  boot();
  for (auto& n : nodes_) {
    EXPECT_EQ(n->coop_set().size(), 3u);
  }
}

TEST_F(MiniCluster, MissReadsFromDiskCachesAndReplies) {
  boot();
  request(0, 42, 1);
  sim_.run_until(11 * sim::kSecond);
  ASSERT_EQ(replies_.size(), 1u);
  EXPECT_TRUE(nodes_[0]->cache().contains(42));
  EXPECT_EQ(nodes_[0]->stats().served_local_disk, 1u);
}

TEST_F(MiniCluster, CacheBroadcastDirectsPeersToForward) {
  boot();
  request(0, 42, 1);  // node 0 reads 42 from disk, broadcasts
  sim_.run_until(11 * sim::kSecond);
  // Peers learned node 0 caches 42.
  EXPECT_TRUE(nodes_[1]->directory().node_caches_file(0, 42));
  // A request at node 1 for 42 is forwarded to node 0 and served remotely.
  request(1, 42, 2);
  sim_.run_until(12 * sim::kSecond);
  ASSERT_EQ(replies_.size(), 2u);
  EXPECT_EQ(nodes_[1]->stats().forwards_sent, 1u);
  EXPECT_EQ(nodes_[0]->stats().served_remote, 1u);
  EXPECT_EQ(nodes_[1]->stats().forward_replies, 1u);
}

TEST_F(MiniCluster, LocalHitServedWithoutForwarding) {
  boot();
  request(0, 42, 1);
  sim_.run_until(11 * sim::kSecond);
  request(0, 42, 2);
  sim_.run_until(12 * sim::kSecond);
  EXPECT_EQ(nodes_[0]->stats().served_local_cache, 1u);
  EXPECT_EQ(nodes_[0]->stats().forwards_sent, 0u);
}

TEST_F(MiniCluster, EvictionBroadcastRemovesDirectoryEntry) {
  boot();
  // Fill node 0's cache past capacity (100 files).
  for (int f = 0; f < 110; ++f) {
    request(0, f, static_cast<std::uint64_t>(100 + f));
    sim_.run_until(sim_.now() + 300 * sim::kMillisecond);
  }
  sim_.run_until(sim_.now() + 2 * sim::kSecond);
  EXPECT_LE(nodes_[0]->cache().size(), 100u);
  // Some early file was evicted; the peers' directories reflect it.
  std::size_t known = nodes_[1]->directory().files_known_for(0);
  EXPECT_LE(known, 100u);
  EXPECT_GT(known, 0u);
}

TEST_F(MiniCluster, CrashedPeerIsExcludedWithinThreeHeartbeats) {
  boot();
  nodes_[1]->crash_process();
  hosts_[1]->crash();
  sim_.run_until(40 * sim::kSecond);
  EXPECT_FALSE(nodes_[0]->coop_set().contains(1));
  EXPECT_FALSE(nodes_[2]->coop_set().contains(1));
  EXPECT_GT(nodes_[0]->stats().exclusions + nodes_[2]->stats().exclusions, 0u);
}

TEST_F(MiniCluster, RestartedPeerRejoinsAndGetsSnapshots) {
  boot();
  request(0, 7, 1);  // node 0 caches file 7
  sim_.run_until(11 * sim::kSecond);
  nodes_[1]->crash_process();
  hosts_[1]->crash();
  sim_.run_until(40 * sim::kSecond);
  hosts_[1]->reboot();
  nodes_[1]->start();
  sim_.run_until(60 * sim::kSecond);
  EXPECT_EQ(nodes_[1]->coop_set().size(), 3u);
  EXPECT_TRUE(nodes_[0]->coop_set().contains(1));
  // The rejoiner received node 0's cache snapshot.
  EXPECT_TRUE(nodes_[1]->directory().node_caches_file(0, 7));
  EXPECT_GE(nodes_[1]->stats().rejoins, 1u);
}

TEST_F(MiniCluster, HungNodeIsExcludedAndSplintersOnResume) {
  boot();
  nodes_[1]->hang_process();
  sim_.run_until(40 * sim::kSecond);
  EXPECT_FALSE(nodes_[0]->coop_set().contains(1));
  nodes_[1]->unhang_process();
  sim_.run_until(70 * sim::kSecond);
  // The resumed node processed its own (parked) exclusion: singleton.
  EXPECT_EQ(nodes_[1]->coop_set().size(), 1u);
  // And nobody re-integrates it (no process restart => no rejoin).
  EXPECT_FALSE(nodes_[0]->coop_set().contains(1));
}

TEST_F(MiniCluster, DeadDiskWedgesTheCoordinatingThread) {
  boot();
  // One dead disk (the paper's single-SCSI-fault case): its queue fills
  // and the coordinating thread blocks. (With *both* disks dead the
  // admission limit is reached before either queue fills — the node
  // livelocks instead, which only FME-style probing can see.)
  disks_[2]->fail_timeout();  // node 1, disk 0
  std::uint64_t id = 1;
  for (int round = 0; round < 700; ++round) {
    request(1, 500 + round, id++);
    sim_.run_until(sim_.now() + 25 * sim::kMillisecond);
    if (nodes_[1]->blocked()) break;
  }
  EXPECT_TRUE(nodes_[1]->blocked());
  // ... and the wedged node is eventually excluded by its peers.
  sim_.run_until(sim_.now() + 40 * sim::kSecond);
  EXPECT_FALSE(nodes_[0]->coop_set().contains(1));
}

TEST_F(MiniCluster, BlockedMainLoopReadsHelperPortsAndParksRequests) {
  boot();
  // Wedge node 1's coordinating thread on a dead disk, as above.
  disks_[2]->fail_timeout();
  std::uint64_t id = 1;
  for (int round = 0; round < 700 && !nodes_[1]->blocked(); ++round) {
    request(1, 500 + round, id++);
    sim_.run_until(sim_.now() + 25 * sim::kMillisecond);
  }
  ASSERT_TRUE(nodes_[1]->blocked());
  auto answered = [this](std::uint64_t rid) {
    return std::find(replies_.begin(), replies_.end(), rid) != replies_.end();
  };

  // A helper thread still reads node 0's cache update for file 950.
  request(0, 950, id++);
  sim_.run_until(sim_.now() + 500 * sim::kMillisecond);
  EXPECT_TRUE(nodes_[1]->blocked());
  EXPECT_TRUE(nodes_[1]->directory().node_caches_file(0, 950));

  // A client request waits for the coordinating thread.
  const std::uint64_t parked = id++;
  request(1, 950, parked);
  sim_.run_until(sim_.now() + sim::kSecond);
  EXPECT_TRUE(nodes_[1]->blocked());
  EXPECT_FALSE(answered(parked));

  // Once the disk is back the thread unblocks and serves it.
  disks_[2]->repair();
  sim_.run_until(sim_.now() + 4 * sim::kSecond);
  EXPECT_FALSE(nodes_[1]->blocked());
  EXPECT_TRUE(answered(parked));
}

TEST_F(MiniCluster, HungProcessParksHelperPortsUntilUnhung) {
  boot();
  nodes_[2]->hang_process();
  request(0, 960, 1);  // node 0 reads 960 and broadcasts it
  sim_.run_until(sim_.now() + sim::kSecond);
  ASSERT_TRUE(nodes_[0]->cache().contains(960));
  // Every thread of a hung process is stuck: the update waits.
  EXPECT_FALSE(nodes_[2]->directory().node_caches_file(0, 960));
  nodes_[2]->unhang_process();
  EXPECT_TRUE(nodes_[2]->directory().node_caches_file(0, 960));
}

TEST_F(MiniCluster, StaleRequestsAreShed) {
  boot();
  workload::HttpRequest r;
  r.file = 3;
  r.client = client_host_->id();
  r.request_id = 77;
  r.sent_at = sim_.now() - 8 * sim::kSecond;  // client gave up long ago
  net::SendOptions o;
  o.reliable = true;
  client_net_.send(client_host_->id(), 0, net::ports::kPressHttp,
                   workload::kHttpRequestBytes,
                   net::make_body<workload::HttpRequest>(r), std::move(o));
  sim_.run_until(12 * sim::kSecond);
  EXPECT_TRUE(replies_.empty());
  EXPECT_EQ(nodes_[0]->stats().shed_stale, 1u);
}

TEST_F(MiniCluster, ForwardRefusedFallsBackToLocalDisk) {
  boot();
  request(0, 42, 1);
  sim_.run_until(11 * sim::kSecond);
  // Node 0 caches 42. Kill its process; node 1's forward gets refused.
  nodes_[0]->crash_process();
  request(1, 42, 2);
  sim_.run_until(13 * sim::kSecond);
  ASSERT_EQ(replies_.size(), 2u);  // still served (from node 1's disk)
  EXPECT_EQ(nodes_[1]->stats().forward_failures, 1u);
  EXPECT_EQ(nodes_[1]->stats().served_local_disk, 1u);
}

TEST_F(MiniCluster, NonMemberForwardsAreDropped) {
  boot();
  request(0, 42, 1);  // node 0 caches 42, broadcasts
  sim_.run_until(11 * sim::kSecond);
  // Node 0 unilaterally excludes node 1 (as queue monitoring would).
  // Node 1 still believes in the full cooperation set and forwards.
  nodes_[0]->node_out(1);  // external-membership path is a no-op here...
  // ...so emulate with the control message a detector would broadcast:
  cluster_net_.send(2, 0, net::ports::kPressControl, 64,
                    net::make_body<ControlMsg>(ControlMsg{Exclude{1, 2}}));
  sim_.run_until(12 * sim::kSecond);
  ASSERT_FALSE(nodes_[0]->coop_set().contains(1));
  request(1, 42, 2);
  sim_.run_until(sim_.now() + 7 * sim::kSecond);
  EXPECT_GE(nodes_[0]->stats().dropped_nonmember, 1u);
}

TEST_F(MiniCluster, IndependentModeNeverForwards) {
  PressParams indep;
  indep.cooperative = false;
  indep.membership = PressParams::Membership::kNone;
  indep.cache_bytes = 100 * indep.file_bytes;
  workload::FileSet files;
  files.count = 1000;
  net::Host host(sim_, 5, "indep");
  cluster_net_.attach(host);
  client_net_.attach(host);
  disk::Disk d1(sim_, indep.disk), d2(sim_, indep.disk);
  PressNode node(sim_, cluster_net_, client_net_, host, sim::Rng(9), indep,
                 files, {5}, {&d1, &d2});
  node.start();
  workload::HttpRequest r;
  r.file = 1;
  r.client = client_host_->id();
  r.request_id = 1;
  r.sent_at = sim_.now();
  net::SendOptions o;
  o.reliable = true;
  client_net_.send(client_host_->id(), 5, net::ports::kPressHttp,
                   workload::kHttpRequestBytes,
                   net::make_body<workload::HttpRequest>(r), std::move(o));
  sim_.run_until(sim_.now() + 2 * sim::kSecond);
  EXPECT_EQ(replies_.size(), 1u);
  EXPECT_EQ(node.stats().forwards_sent, 0u);
  EXPECT_EQ(node.coop_set().size(), 1u);
}

TEST_F(MiniCluster, PrewarmPlacesDisjointHotFiles) {
  for (int i = 0; i < kNodes; ++i) nodes_[i]->start(/*prewarm=*/true);
  sim_.run_until(sim::kSecond);
  // Every node holds its share; shares are disjoint.
  for (int f = 0; f < 3 * 100; ++f) {
    int holders = 0;
    for (auto& n : nodes_) holders += n->cache().contains(f);
    EXPECT_EQ(holders, 1) << "file " << f;
  }
  // Directories point at the right owners.
  EXPECT_TRUE(nodes_[0]->directory().node_caches_file(1, 1) ||
              nodes_[1]->cache().contains(1));
}

// The same cluster with ids 98-100, which have no bit in a trace record's
// 64-bit mask: the auditor must follow its coop sets by the records'
// subjects, through a join, an exclusion and a rejoin, without a false
// alarm.
class HighIdCluster : public MiniCluster {
 protected:
  HighIdCluster() : MiniCluster(98) {}
};

TEST_F(HighIdCluster, AuditedJoinExclusionAndRejoinStayClean) {
  trace::Tracer tracer;
  const PressParams p;
  trace::AuditorConfig cfg;
  cfg.hb_deadline = p.heartbeat_tolerance * p.heartbeat_period +
                    p.heartbeat_period / 2;
  trace::Auditor auditor(tracer, cfg);
  std::vector<trace::Violation> violations;
  auditor.on_violation = [&](const trace::Violation& v) {
    violations.push_back(v);
  };
  sim_.set_tracer(&tracer);

  boot();  // join: each node rejoins the ring the others formed
  for (auto& n : nodes_) EXPECT_EQ(n->coop_set().size(), 3u);
  nodes_[1]->crash_process();  // node 99: excluded by its ring neighbours
  hosts_[1]->crash();
  sim_.run_until(40 * sim::kSecond);
  EXPECT_FALSE(nodes_[0]->coop_set().contains(99));
  EXPECT_FALSE(nodes_[2]->coop_set().contains(99));
  hosts_[1]->reboot();
  nodes_[1]->start();  // rejoin
  sim_.run_until(60 * sim::kSecond);
  for (auto& n : nodes_) EXPECT_EQ(n->coop_set().size(), 3u);
  sim_.set_tracer(nullptr);

  EXPECT_GT(auditor.records_audited(), 0u);
  EXPECT_TRUE(violations.empty())
      << violations.front().invariant << ": " << violations.front().detail;
}

}  // namespace
}  // namespace availsim::press
