#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "availsim/net/network.hpp"
#include "availsim/sim/rng.hpp"
#include "availsim/sim/simulator.hpp"

namespace availsim::net {
namespace {

struct Probe {
  int value = 0;
};

class NetTest : public ::testing::Test {
 protected:
  NetTest() : net_(sim_, sim::Rng(1), params()) {
    for (int i = 0; i < 4; ++i) {
      hosts_.push_back(std::make_unique<Host>(sim_, i, "n" + std::to_string(i)));
      net_.attach(*hosts_.back());
    }
  }

  static NetworkParams params() {
    NetworkParams p;
    p.name = "test";
    p.base_latency = 100 * sim::kMicrosecond;
    p.max_jitter = 0;  // deterministic arrival times for assertions
    return p;
  }

  void send(NodeId src, NodeId dst, int value, bool reliable = false,
            sim::EventFn on_refused = {}) {
    Network::SendOptions o;
    o.reliable = reliable;
    o.on_refused = std::move(on_refused);
    net_.send(src, dst, 100, 200, make_body<Probe>(Probe{value}), std::move(o));
  }

  /// Binds port 100 on every host; each delivery appends its tag to got_.
  void record_deliveries() {
    for (auto& h : hosts_) {
      h->bind(100, [this](const Packet& p) {
        got_.push_back(body_as<Probe>(p).value);
      });
    }
  }

  sim::Simulator sim_;
  Network net_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<int> got_;
};

TEST_F(NetTest, DeliversToBoundPort) {
  std::vector<int> got;
  hosts_[1]->bind(100, [&](const Packet& p) { got.push_back(body_as<Probe>(p).value); });
  send(0, 1, 7);
  sim_.run();
  EXPECT_EQ(got, (std::vector<int>{7}));
  EXPECT_EQ(net_.packets_delivered(), 1u);
}

TEST_F(NetTest, DeliveryLatencyIncludesTransmission) {
  sim::Time arrival = -1;
  hosts_[1]->bind(100, [&](const Packet&) { arrival = sim_.now(); });
  send(0, 1, 1);
  sim_.run();
  // 200 bytes at 1 Gb/s = 1.6 us tx + 100 us latency.
  EXPECT_GE(arrival, 100 * sim::kMicrosecond);
  EXPECT_LE(arrival, 105 * sim::kMicrosecond);
}

TEST_F(NetTest, DatagramDroppedWhenLinkDown) {
  bool got = false;
  hosts_[1]->bind(100, [&](const Packet&) { got = true; });
  net_.set_link_up(0, false);
  send(0, 1, 1);
  sim_.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(net_.packets_dropped(), 1u);
}

TEST_F(NetTest, DatagramDroppedWhenSwitchDown) {
  bool got = false;
  hosts_[1]->bind(100, [&](const Packet&) { got = true; });
  net_.set_switch_up(false);
  send(0, 1, 1);
  sim_.run();
  EXPECT_FALSE(got);
}

TEST_F(NetTest, ReliableParksAcrossLinkOutageAndFlushesOnRepair) {
  std::vector<int> got;
  hosts_[1]->bind(100, [&](const Packet& p) { got.push_back(body_as<Probe>(p).value); });
  net_.set_link_up(1, false);
  send(0, 1, 1, /*reliable=*/true);
  send(0, 1, 2, /*reliable=*/true);
  sim_.run_until(10 * sim::kSecond);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(net_.parked_reliable(), 2u);
  net_.set_link_up(1, true);
  sim_.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_EQ(net_.parked_reliable(), 0u);
}

TEST_F(NetTest, ReliableParksAcrossSwitchOutage) {
  std::vector<int> got;
  hosts_[2]->bind(100, [&](const Packet& p) { got.push_back(body_as<Probe>(p).value); });
  net_.set_switch_up(false);
  send(0, 2, 5, true);
  sim_.run_until(sim::kSecond);
  EXPECT_TRUE(got.empty());
  net_.set_switch_up(true);
  sim_.run();
  EXPECT_EQ(got, (std::vector<int>{5}));
}

TEST_F(NetTest, ReliableRefusedWhenPortUnbound) {
  bool refused = false;
  send(0, 1, 1, true, [&] { refused = true; });
  sim_.run();
  EXPECT_TRUE(refused);
}

TEST_F(NetTest, RefusalCallbacksFireOnceForParkedAndInFlightSends) {
  // A parked reliable send and one in flight both hold their refusal
  // callbacks in the network's table, by index: each RST fires exactly
  // once, and the flush leaves nothing parked.
  int parked_refusals = 0;
  int inflight_refusals = 0;
  net_.set_link_up(2, false);
  send(0, 2, 1, /*reliable=*/true, [&] { ++parked_refusals; });    // parks
  send(0, 1, 2, /*reliable=*/true, [&] { ++inflight_refusals; });  // flies
  sim_.run_until(sim::kSecond);
  EXPECT_EQ(inflight_refusals, 1);
  EXPECT_EQ(parked_refusals, 0);
  EXPECT_EQ(net_.parked_reliable(), 1u);
  net_.set_link_up(2, true);  // flushes the parked send; no port is bound
  sim_.run();
  EXPECT_EQ(parked_refusals, 1);
  EXPECT_EQ(inflight_refusals, 1);
  EXPECT_EQ(net_.parked_reliable(), 0u);
}

TEST_F(NetTest, ReliableSilentWhenHostDown) {
  // A down host never answers: no RST, the packet is simply lost (TCP
  // retransmits until its own timeout; the application sees only silence).
  hosts_[1]->bind(100, [](const Packet&) {});
  hosts_[1]->crash();
  bool refused = false;
  bool got = false;
  send(0, 1, 1, true, [&] { refused = true; });
  sim_.run();
  EXPECT_FALSE(refused);
  EXPECT_FALSE(got);
  EXPECT_EQ(net_.packets_dropped(), 1u);
}

TEST_F(NetTest, FrozenHostParksAndFlushesOnThaw) {
  std::vector<int> got;
  hosts_[1]->bind(100, [&](const Packet& p) { got.push_back(body_as<Probe>(p).value); });
  hosts_[1]->freeze();
  send(0, 1, 1);
  send(0, 1, 2);
  sim_.run_until(sim::kSecond);
  EXPECT_TRUE(got.empty());
  hosts_[1]->unfreeze();
  sim_.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST_F(NetTest, CrashDropsParkedAndBindings) {
  std::vector<int> got;
  hosts_[1]->bind(100, [&](const Packet& p) { got.push_back(body_as<Probe>(p).value); });
  hosts_[1]->freeze();
  send(0, 1, 1);
  sim_.run_until(sim::kSecond);
  hosts_[1]->crash();
  hosts_[1]->reboot();
  sim_.run();
  EXPECT_TRUE(got.empty());
  EXPECT_FALSE(hosts_[1]->has_port(100));
}

TEST_F(NetTest, ReliableInOrderPerFlow) {
  std::vector<int> got;
  hosts_[3]->bind(100, [&](const Packet& p) { got.push_back(body_as<Probe>(p).value); });
  for (int i = 0; i < 50; ++i) send(0, 3, i, true);
  sim_.run();
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

// The flow table: reliable sends that find their path down wait in
// Network's parked queue. A link repair retransmits the parked sends that
// touch that link, a switch repair all of them, each in park order.
using FlowTable = NetTest;

TEST_F(FlowTable, ParkAndTakeTouching) {
  record_deliveries();
  net_.set_link_up(2, false);
  net_.set_link_up(3, false);
  send(1, 3, 1, true);
  send(0, 2, 2, true);
  send(0, 3, 3, true);
  send(3, 1, 4, true);
  send(2, 1, 5, true);
  sim_.run_until(sim::kSecond);
  EXPECT_EQ(net_.parked_reliable(), 5u);
  net_.set_link_up(3, true);
  sim_.run_until(2 * sim::kSecond);
  EXPECT_EQ(got_, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(net_.parked_reliable(), 2u);
  got_.clear();
  net_.set_link_up(2, true);
  sim_.run();
  EXPECT_EQ(got_, (std::vector<int>{2, 5}));
  EXPECT_EQ(net_.parked_reliable(), 0u);
}

TEST_F(FlowTable, TakeParkedTouchingReturnsParkOrder) {
  // Flows touching node 0 interleaved with flows that touch only node 3;
  // park order is the tag order 1..8, and 2->0 parks twice.
  record_deliveries();
  net_.set_link_up(0, false);
  net_.set_link_up(3, false);
  send(2, 0, 1, true);
  send(1, 3, 2, true);
  send(1, 0, 3, true);
  send(0, 2, 4, true);
  send(0, 1, 5, true);
  send(3, 2, 6, true);
  send(1, 0, 7, true);
  send(2, 0, 8, true);
  sim_.run_until(sim::kSecond);
  EXPECT_EQ(net_.parked_reliable(), 8u);
  net_.set_link_up(0, true);
  sim_.run_until(2 * sim::kSecond);
  EXPECT_EQ(got_, (std::vector<int>{1, 3, 4, 5, 7, 8}));
  EXPECT_EQ(net_.parked_reliable(), 2u);
}

TEST_F(NetTest, SendStillBlockedAfterRepairParksAgainAtTheTail) {
  // Repairing link 1 retransmits 1->2, which finds link 2 still down and
  // parks again behind 0->2: the repair of link 2 then replays 0->2 first.
  record_deliveries();
  net_.set_link_up(1, false);
  net_.set_link_up(2, false);
  send(0, 1, 1, true);
  send(1, 2, 2, true);
  send(0, 2, 3, true);
  sim_.run_until(sim::kSecond);
  net_.set_link_up(1, true);
  sim_.run_until(2 * sim::kSecond);
  EXPECT_EQ(net_.parked_reliable(), 2u);
  net_.set_link_up(2, true);
  sim_.run();
  EXPECT_EQ(got_, (std::vector<int>{1, 3, 2}));
}

TEST_F(FlowTable, TakeAllParkedEmptiesTable) {
  record_deliveries();
  net_.set_switch_up(false);
  for (int i = 0; i < 5; ++i) send(i % 4, (i + 1) % 4, i, true);
  sim_.run_until(sim::kSecond);
  EXPECT_EQ(net_.parked_reliable(), 5u);
  net_.set_switch_up(true);
  sim_.run();
  EXPECT_EQ(got_.size(), 5u);
  EXPECT_EQ(net_.parked_reliable(), 0u);
}

TEST_F(FlowTable, TakeAllParkedReturnsParkOrder) {
  // Park order is the reverse of (src, dst) order, so a drain in flow
  // order would deliver 4, 3, 2, 1.
  record_deliveries();
  net_.set_switch_up(false);
  send(3, 0, 1, true);
  send(2, 1, 2, true);
  send(1, 0, 3, true);
  send(0, 3, 4, true);
  sim_.run_until(sim::kSecond);
  EXPECT_EQ(net_.parked_reliable(), 4u);
  net_.set_switch_up(true);
  sim_.run();
  EXPECT_EQ(got_, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(net_.parked_reliable(), 0u);
}

TEST_F(NetTest, ReliableFlowsAreSequencedIndependently) {
  // Two slow reliable sends: 0->3 crosses a link with 50 ms extra latency,
  // 1->2 carries 10 MB (80 ms on the wire). Neither may hold back a flow
  // that shares only its source (0->2), its destination (0->2) or its
  // hosts in the other direction (2->1).
  sim::Time arrival[5] = {};
  for (auto& h : hosts_) {
    h->bind(100, [&](const Packet& p) {
      arrival[body_as<Probe>(p).value] = sim_.now();
    });
  }
  net_.set_link_quality(3, LinkQuality{0.0, 50 * sim::kMillisecond, 0});
  send(0, 3, 1, true);
  Network::SendOptions o;
  o.reliable = true;
  net_.send(1, 2, 100, 10'000'000, make_body<Probe>(Probe{2}), std::move(o));
  send(0, 2, 3, true);
  send(2, 1, 4, true);
  sim_.run();
  EXPECT_GE(arrival[1], 50 * sim::kMillisecond);
  EXPECT_GE(arrival[2], 80 * sim::kMillisecond);
  EXPECT_LT(arrival[3], sim::kMillisecond);
  EXPECT_LT(arrival[4], sim::kMillisecond);
}

// 200 sends from 0 to 1 over a fabric whose jitter (200 us) dwarfs the
// 1.6 us between departures; returns the tags in arrival order.
std::vector<int> jittered_arrivals(bool reliable) {
  sim::Simulator sim;
  NetworkParams p;
  p.max_jitter = 200 * sim::kMicrosecond;
  Network net(sim, sim::Rng(3), p);
  Host a(sim, 0, "a");
  Host b(sim, 1, "b");
  net.attach(a);
  net.attach(b);
  std::vector<int> got;
  b.bind(100, [&](const Packet& pkt) { got.push_back(body_as<Probe>(pkt).value); });
  for (int i = 0; i < 200; ++i) {
    Network::SendOptions o;
    o.reliable = reliable;
    net.send(0, 1, 100, 200, make_body<Probe>(Probe{i}), std::move(o));
  }
  sim.run();
  return got;
}

TEST(NetworkJitter, ReliableFlowArrivesInOrder) {
  const auto got = jittered_arrivals(/*reliable=*/true);
  ASSERT_EQ(got.size(), 200u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

TEST(NetworkJitter, DatagramsOvertakeEachOther) {
  // Control for the test above: the same jitter reorders datagrams.
  const auto got = jittered_arrivals(/*reliable=*/false);
  ASSERT_EQ(got.size(), 200u);
  EXPECT_FALSE(std::is_sorted(got.begin(), got.end()));
}

TEST_F(NetTest, PingSucceedsOnHealthyPath) {
  int ok = -1;
  net_.ping(0, 1, sim::kSecond, [&](bool r) { ok = r; });
  sim_.run();
  EXPECT_EQ(ok, 1);
}

TEST_F(NetTest, PingTimesOutWhenLinkDown) {
  net_.set_link_up(1, false);
  int ok = -1;
  sim::Time when = -1;
  net_.ping(0, 1, 15 * sim::kSecond, [&](bool r) {
    ok = r;
    when = sim_.now();
  });
  sim_.run();
  EXPECT_EQ(ok, 0);
  EXPECT_EQ(when, 15 * sim::kSecond);
}

TEST_F(NetTest, PingTimesOutWhenHostFrozen) {
  hosts_[2]->freeze();
  int ok = -1;
  net_.ping(0, 2, sim::kSecond, [&](bool r) { ok = r; });
  sim_.run();
  EXPECT_EQ(ok, 0);
}

TEST_F(NetTest, PingTimesOutWhenHostDown) {
  hosts_[2]->crash();
  int ok = -1;
  net_.ping(0, 2, sim::kSecond, [&](bool r) { ok = r; });
  sim_.run();
  EXPECT_EQ(ok, 0);
}

TEST_F(NetTest, PingAnswersEvenWhenProcessPortsUnbound) {
  // A node whose application crashed still answers pings: this is why the
  // paper's Mon-based front-end cannot see application crashes.
  int ok = -1;
  net_.ping(0, 3, sim::kSecond, [&](bool r) { ok = r; });
  sim_.run();
  EXPECT_EQ(ok, 1);
}

TEST_F(NetTest, MulticastReachesSubscribersExceptSender) {
  std::vector<int> got;
  for (NodeId n : {0, 1, 2}) {
    net_.multicast_join(9, n);
    hosts_[static_cast<size_t>(n)]->bind(
        100, [&got, n](const Packet&) { got.push_back(n); });
  }
  net_.multicast(0, 9, 100, 64, make_body<Probe>(Probe{1}));
  sim_.run();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST_F(NetTest, MulticastSkipsUnreachableMembers) {
  std::vector<int> got;
  for (NodeId n : {0, 1, 2, 3}) {
    net_.multicast_join(9, n);
    hosts_[static_cast<size_t>(n)]->bind(
        100, [&got, n](const Packet&) { got.push_back(n); });
  }
  net_.set_link_up(2, false);
  net_.multicast(0, 9, 100, 64, make_body<Probe>(Probe{1}));
  sim_.run();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int>{1, 3}));
}

TEST_F(NetTest, TwoNetworksShareHostStateButNotLinks) {
  // The testbed property: the intra-cluster fabric failing does not affect
  // client-fabric reachability of the same hosts.
  Network client_net(sim_, sim::Rng(2), params());
  for (auto& h : hosts_) client_net.attach(*h);
  net_.set_switch_up(false);  // cluster fabric dies
  int ok = -1;
  client_net.ping(0, 1, sim::kSecond, [&](bool r) { ok = r; });
  sim_.run();
  EXPECT_EQ(ok, 1);
}

// Seven hosts each park one reliable send to host 0 while its link is
// down; the repair flush must replay them and the trace of delivered
// source ids is returned.
std::vector<int> link_repair_delivery_trace(std::uint64_t seed) {
  sim::Simulator sim;
  NetworkParams p;
  p.name = "trace";
  p.base_latency = 100 * sim::kMicrosecond;
  p.max_jitter = 0;
  Network net(sim, sim::Rng(seed), p);
  std::vector<std::unique_ptr<Host>> hosts;
  for (int i = 0; i < 8; ++i) {
    hosts.push_back(std::make_unique<Host>(sim, i, "n" + std::to_string(i)));
    net.attach(*hosts.back());
  }
  std::vector<int> trace;
  hosts[0]->bind(100, [&](const Packet& pkt) {
    trace.push_back(body_as<Probe>(pkt).value);
  });
  net.set_link_up(0, false);
  for (int i = 1; i <= 7; ++i) {
    Network::SendOptions o;
    o.reliable = true;
    net.send(i, 0, 100, 200, make_body<Probe>(Probe{i}), std::move(o));
  }
  sim.run_until(sim::kSecond);
  net.set_link_up(0, true);
  sim.run();
  return trace;
}

// Regression: the repair flush drained a hash map in iteration order (on
// libstdc++, reverse park order for these flows), so the replayed burst —
// and every downstream event it triggers — depended on the hash layout.
// The flush must replay parked sends in chronological park order.
TEST(NetworkDeterminism, LinkRepairFlushReplaysInParkOrder) {
  EXPECT_EQ(link_repair_delivery_trace(1),
            (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(NetworkDeterminism, IdenticallySeededRunsProduceIdenticalTraces) {
  const auto a = link_repair_delivery_trace(42);
  const auto b = link_repair_delivery_trace(42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 7u);
}

}  // namespace
}  // namespace availsim::net
