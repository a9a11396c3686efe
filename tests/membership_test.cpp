#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "availsim/membership/client_lib.hpp"
#include "availsim/membership/member_server.hpp"
#include "availsim/net/network.hpp"

namespace availsim::membership {
namespace {

class MembershipFixture : public ::testing::Test {
 protected:
  static constexpr int kNodes = 4;

  MembershipFixture() : net_(sim_, sim::Rng(3), params()) {
    for (int i = 0; i < kNodes; ++i) {
      hosts_.push_back(std::make_unique<net::Host>(sim_, i, "n"));
      net_.attach(*hosts_.back());
      boards_.push_back(std::make_unique<MembershipBoard>());
      daemons_.push_back(std::make_unique<MemberServer>(
          sim_, net_, *hosts_.back(), sim::Rng(10 + i), MemberServerParams{},
          *boards_.back()));
    }
  }

  static net::NetworkParams params() {
    net::NetworkParams p;
    p.max_jitter = 5 * sim::kMicrosecond;
    return p;
  }

  void start_all(sim::Time stagger = 2 * sim::kSecond) {
    for (int i = 0; i < kNodes; ++i) {
      sim_.schedule_after(i * stagger, [this, i] { daemons_[i]->start(); });
    }
  }

  bool converged(int expected) {
    for (int i = 0; i < kNodes; ++i) {
      if (hosts_[i]->state() != net::Host::State::kUp) continue;
      if (static_cast<int>(daemons_[i]->view().size()) != expected) {
        return false;
      }
    }
    return true;
  }

  sim::Simulator sim_;
  net::Network net_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<MembershipBoard>> boards_;
  std::vector<std::unique_ptr<MemberServer>> daemons_;
};

TEST_F(MembershipFixture, GroupFormsViaMulticastJoin) {
  start_all();
  sim_.run_until(30 * sim::kSecond);
  EXPECT_TRUE(converged(kNodes));
  for (int i = 0; i < kNodes; ++i) {
    EXPECT_EQ(boards_[i]->members().size(), static_cast<size_t>(kNodes));
  }
}

TEST_F(MembershipFixture, CrashedNodeIsExcludedWithinHeartbeatWindow) {
  start_all();
  sim_.run_until(30 * sim::kSecond);
  hosts_[2]->crash();
  daemons_[2]->on_host_crashed();
  // 3 heartbeats at 5s + 2PC round: well under 60s.
  sim_.run_until(90 * sim::kSecond);
  EXPECT_TRUE(converged(kNodes - 1));
  EXPECT_FALSE(boards_[0]->contains(2));
}

TEST_F(MembershipFixture, RestartedNodeRejoins) {
  start_all();
  sim_.run_until(30 * sim::kSecond);
  hosts_[2]->crash();
  daemons_[2]->on_host_crashed();
  sim_.run_until(90 * sim::kSecond);
  hosts_[2]->reboot();
  daemons_[2]->start();
  sim_.run_until(120 * sim::kSecond);
  EXPECT_TRUE(converged(kNodes));
  EXPECT_TRUE(boards_[0]->contains(2));
}

TEST_F(MembershipFixture, LinkOutageSplitsAndHealsViaAnnounce) {
  start_all();
  sim_.run_until(30 * sim::kSecond);
  net_.set_link_up(1, false);
  sim_.run_until(120 * sim::kSecond);
  // Node 1 isolated: others form a 3-group, node 1 a singleton.
  EXPECT_EQ(daemons_[0]->view().size(), 3u);
  EXPECT_EQ(daemons_[1]->view().size(), 1u);
  net_.set_link_up(1, true);
  sim_.run_until(200 * sim::kSecond);
  EXPECT_TRUE(converged(kNodes));
}

TEST_F(MembershipFixture, SwitchOutagePartitionsToSingletonsAndRemerges) {
  start_all();
  sim_.run_until(30 * sim::kSecond);
  net_.set_switch_up(false);
  sim_.run_until(150 * sim::kSecond);
  for (int i = 0; i < kNodes; ++i) {
    EXPECT_EQ(daemons_[i]->view().size(), 1u) << "node " << i;
  }
  net_.set_switch_up(true);
  sim_.run_until(300 * sim::kSecond);
  EXPECT_TRUE(converged(kNodes));
}

TEST_F(MembershipFixture, NodeDownReportRemovesHealthyDaemonsNode) {
  start_all();
  sim_.run_until(30 * sim::kSecond);
  // The application on node 0 reports node 3 down (e.g. queue monitoring),
  // even though node 3's daemon is healthy.
  daemons_[0]->node_down_report(3);
  // The 2PC completes within a round-trip or two — well before node 3's
  // next periodic announcement can merge it back.
  sim_.run_until(31 * sim::kSecond);
  EXPECT_FALSE(boards_[0]->contains(3));
  EXPECT_FALSE(boards_[1]->contains(3));
  // Node 3's own announcements eventually merge it back (flapping is the
  // documented MEM/QMON conflict that FME resolves).
  sim_.run_until(120 * sim::kSecond);
  EXPECT_TRUE(boards_[0]->contains(3));
}

TEST_F(MembershipFixture, FrozenNodeExcludedThenRemergesAfterThaw) {
  start_all();
  sim_.run_until(30 * sim::kSecond);
  hosts_[1]->freeze();
  sim_.run_until(120 * sim::kSecond);
  EXPECT_FALSE(boards_[0]->contains(1));
  hosts_[1]->unfreeze();
  sim_.run_until(260 * sim::kSecond);
  EXPECT_TRUE(converged(kNodes));
}

TEST_F(MembershipFixture, BoardVersionAdvancesOnChange) {
  start_all();
  sim_.run_until(30 * sim::kSecond);
  const auto v = boards_[0]->version();
  hosts_[3]->crash();
  daemons_[3]->on_host_crashed();
  sim_.run_until(90 * sim::kSecond);
  EXPECT_GT(boards_[0]->version(), v);
}

TEST(MembershipBoardTest, PublishDeduplicatesAndSorts) {
  MembershipBoard b;
  b.publish({3, 1, 2});
  EXPECT_EQ(std::vector<net::NodeId>(b.members().begin(), b.members().end()),
            (std::vector<net::NodeId>{1, 2, 3}));
  const auto v = b.version();
  b.publish({2, 1, 3});  // same set, different order: no new version
  EXPECT_EQ(b.version(), v);
}

TEST(MembershipClientTest, CallbacksFireOnDiff) {
  sim::Simulator sim;
  MembershipBoard board;
  MembershipClient client(sim, board, sim::kSecond);
  std::vector<net::NodeId> in, out;
  client.on_node_in = [&](net::NodeId n) { in.push_back(n); };
  client.on_node_out = [&](net::NodeId n) { out.push_back(n); };
  board.publish({0, 1, 2});
  client.start();
  sim.run_until(100 * sim::kMillisecond);
  EXPECT_EQ(in.size(), 3u);
  board.publish({0, 2, 3});
  sim.run_until(3 * sim::kSecond);
  ASSERT_EQ(in.size(), 4u);
  EXPECT_EQ(in.back(), 3);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1);
}

TEST(MembershipClientTest, StopSilencesCallbacks) {
  sim::Simulator sim;
  MembershipBoard board;
  MembershipClient client(sim, board, sim::kSecond);
  int events = 0;
  client.on_node_in = [&](net::NodeId) { ++events; };
  board.publish({0});
  client.start();
  sim.run_until(100 * sim::kMillisecond);
  client.stop();
  board.publish({0, 1, 2});
  sim.run_until(5 * sim::kSecond);
  EXPECT_EQ(events, 1);
}

TEST(MembershipClientTest, NodeDownForwardsToDaemonHook) {
  sim::Simulator sim;
  MembershipBoard board;
  MembershipClient client(sim, board, sim::kSecond);
  net::NodeId reported = net::kNoNode;
  client.report_down = [&](net::NodeId n) { reported = n; };
  client.node_down(7);
  EXPECT_EQ(reported, 7);
}

}  // namespace
}  // namespace availsim::membership
