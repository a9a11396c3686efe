// Gray-fault layer: lossy/flapping links, limping nodes, degraded disks,
// correlated bursts, and the hardened detectors that must survive them.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "availsim/disk/disk.hpp"
#include "availsim/fault/injector.hpp"
#include "availsim/harness/experiment.hpp"
#include "availsim/harness/testbed.hpp"
#include "availsim/net/network.hpp"
#include "availsim/sim/rng.hpp"
#include "availsim/sim/simulator.hpp"

namespace availsim {
namespace {

struct Probe {
  int value = 0;
};

// ---------------------------------------------------------------------------
// Network: per-link loss, degradation delay, flapping
// ---------------------------------------------------------------------------

class GrayNetTest : public ::testing::Test {
 protected:
  GrayNetTest() : net_(sim_, sim::Rng(7), params()) {
    for (int i = 0; i < 3; ++i) {
      hosts_.push_back(
          std::make_unique<net::Host>(sim_, i, std::to_string(i)));
      net_.attach(*hosts_.back());
    }
  }

  static net::NetworkParams params() {
    net::NetworkParams p;
    p.name = "gray";
    p.base_latency = 100 * sim::kMicrosecond;
    p.max_jitter = 0;
    return p;
  }

  void send(net::NodeId src, net::NodeId dst, bool reliable) {
    net::SendOptions o;
    o.reliable = reliable;
    net_.send(src, dst, 100, 200, net::make_body<Probe>(Probe{1}),
              std::move(o));
  }

  sim::Simulator sim_;
  net::Network net_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
};

TEST_F(GrayNetTest, LossyLinkDropsDatagramsButLinkStaysUp) {
  int got = 0;
  hosts_[1]->bind(100, [&](const net::Packet&) { ++got; });
  net_.set_link_quality(1, net::LinkQuality{1.0, 0, 0});
  EXPECT_TRUE(net_.path_up(0, 1));  // sick, not down
  for (int i = 0; i < 20; ++i) send(0, 1, /*reliable=*/false);
  sim_.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net_.packets_lost(), 20u);

  net_.clear_link_quality(1);
  send(0, 1, /*reliable=*/false);
  sim_.run();
  EXPECT_EQ(got, 1);
}

TEST_F(GrayNetTest, LossAppliesPerDirectionAcrossBothEndpoints) {
  // Loss on the *source's* link also kills traffic it sends.
  int got = 0;
  hosts_[1]->bind(100, [&](const net::Packet&) { ++got; });
  net_.set_link_quality(0, net::LinkQuality{1.0, 0, 0});
  send(0, 1, /*reliable=*/false);
  sim_.run();
  EXPECT_EQ(got, 0);
  // Third-party traffic not crossing the sick link is untouched.
  hosts_[2]->bind(100, [&](const net::Packet&) { ++got; });
  send(1, 2, /*reliable=*/false);
  sim_.run();
  EXPECT_EQ(got, 1);
}

TEST_F(GrayNetTest, ReliableTrafficSurvivesLossButPaysRetransmitTime) {
  int got = 0;
  sim::Time last_arrival = 0;
  hosts_[1]->bind(100, [&](const net::Packet&) {
    ++got;
    last_arrival = sim_.now();
  });
  net_.set_link_quality(1, net::LinkQuality{0.8, 0, 0});
  for (int i = 0; i < 30; ++i) send(0, 1, /*reliable=*/true);
  sim_.run();
  EXPECT_EQ(got, 30);  // TCP masks the loss: bytes arrive late, not never
  // With 80% loss almost every packet pays at least one 200 ms RTO.
  EXPECT_GT(last_arrival, 100 * sim::kMillisecond);
}

TEST_F(GrayNetTest, DegradedLatencyDelaysDelivery) {
  sim::Time arrival = -1;
  hosts_[1]->bind(100, [&](const net::Packet&) { arrival = sim_.now(); });
  net_.set_link_quality(1, net::LinkQuality{0.0, 5 * sim::kMillisecond, 0});
  send(0, 1, /*reliable=*/false);
  sim_.run();
  EXPECT_GE(arrival, 5 * sim::kMillisecond);
}

TEST_F(GrayNetTest, FlapAlternatesDownAndUp) {
  net_.start_link_flap(1, 2 * sim::kSecond, 3 * sim::kSecond);
  EXPECT_TRUE(net_.flapping(1));
  EXPECT_FALSE(net_.link_up(1));  // injection starts with the down phase
  sim_.run_until(2 * sim::kSecond + sim::kMillisecond);
  EXPECT_TRUE(net_.link_up(1));
  sim_.run_until(5 * sim::kSecond + sim::kMillisecond);
  EXPECT_FALSE(net_.link_up(1));
  net_.stop_link_flap(1);
  EXPECT_FALSE(net_.flapping(1));
  EXPECT_TRUE(net_.link_up(1));
  // The flap's pending toggle must not fire after the repair.
  sim_.run_until(20 * sim::kSecond);
  EXPECT_TRUE(net_.link_up(1));
}

// Regression: stop_link_flap used to forget the flap's epoch, so a flap
// started again began at epoch 1 and the stopped flap's pending toggle
// (due at 2 s) brought the link up inside the new flap's down phase.
TEST_F(GrayNetTest, RestartedFlapIgnoresStoppedFlapsToggle) {
  net_.start_link_flap(1, 2 * sim::kSecond, 3 * sim::kSecond);
  sim_.run_until(sim::kSecond);
  net_.stop_link_flap(1);
  EXPECT_TRUE(net_.link_up(1));
  sim_.run_until(1500 * sim::kMillisecond);
  net_.start_link_flap(1, 2 * sim::kSecond, 3 * sim::kSecond);
  sim_.run_until(2 * sim::kSecond + sim::kMillisecond);
  EXPECT_FALSE(net_.link_up(1));  // the new down phase lasts until 3.5 s
  sim_.run_until(3500 * sim::kMillisecond + sim::kMillisecond);
  EXPECT_TRUE(net_.link_up(1));
}

TEST_F(GrayNetTest, PingLosesEchoesOnLossyLink) {
  net_.set_link_quality(1, net::LinkQuality{1.0, 0, 0});
  bool result = true;
  net_.ping(0, 1, sim::kSecond, [&](bool ok) { result = ok; });
  sim_.run();
  EXPECT_FALSE(result);

  net_.clear_link_quality(1);
  net_.ping(0, 1, sim::kSecond, [&](bool ok) { result = ok; });
  sim_.run();
  EXPECT_TRUE(result);
}

// ---------------------------------------------------------------------------
// Disk: degraded (slow) mode
// ---------------------------------------------------------------------------

TEST(GrayDisk, DegradedDiskServesAtReducedRate) {
  sim::Simulator sim;
  disk::Disk d(sim, disk::DiskParams{});
  const sim::Time healthy = d.service_time(100000);

  sim::Time done_at = -1;
  d.degrade(10.0);
  EXPECT_EQ(d.state(), disk::Disk::State::kDegraded);
  ASSERT_TRUE(d.submit(100000, [&] { done_at = sim.now(); }));
  sim.run();
  EXPECT_GE(done_at, 10 * healthy);  // still completes, 10x slower

  d.repair();
  EXPECT_EQ(d.state(), disk::Disk::State::kOk);
  const sim::Time t0 = sim.now();
  done_at = -1;
  ASSERT_TRUE(d.submit(100000, [&] { done_at = sim.now(); }));
  sim.run();
  EXPECT_LT(done_at - t0, 2 * healthy);
  EXPECT_DOUBLE_EQ(d.slow_factor(), 1.0);
}

TEST(GrayDisk, DegradeIsNoOpWhileTimedOut) {
  sim::Simulator sim;
  disk::Disk d(sim, disk::DiskParams{});
  d.fail_timeout();
  d.degrade(10.0);
  EXPECT_EQ(d.state(), disk::Disk::State::kTimeoutFault);  // dead beats limping
  bool completed = false;
  d.submit(1000, [&] { completed = true; });
  sim.run();
  EXPECT_FALSE(completed);
  d.repair();
  sim.run();
  EXPECT_TRUE(completed);
  EXPECT_DOUBLE_EQ(d.slow_factor(), 1.0);
}

// ---------------------------------------------------------------------------
// Fault load & injector routing
// ---------------------------------------------------------------------------

TEST(GrayFaultLoad, HasAllFourGrayRows) {
  auto specs = fault::gray_fault_load(4);
  ASSERT_EQ(specs.size(), 4u);
  for (const auto& s : specs) EXPECT_TRUE(fault::is_gray_fault(s.type));
  EXPECT_EQ(fault::find_spec(specs, fault::FaultType::kLinkLossy)
                ->component_count,
            4);
  EXPECT_EQ(fault::find_spec(specs, fault::FaultType::kDiskSlow)
                ->component_count,
            8);
  EXPECT_FALSE(fault::is_gray_fault(fault::FaultType::kNodeCrash));
}

TEST(GrayFaultLoad, CorrelatedBurstsStrikeAndRepairTogether) {
  class Recording : public fault::FaultTarget {
   public:
    void inject(fault::FaultType, int) override { ++active; }
    void repair(fault::FaultType, int) override { --active; }
    int active = 0;
  };
  sim::Simulator sim;
  Recording target;
  fault::FaultInjector inj(sim, target, sim::Rng(3));
  std::vector<fault::FaultSpec> specs{
      {fault::FaultType::kLinkLossy, 600.0, 60.0, 4}};
  fault::FaultInjector::CorrelatedLoadOptions opts;
  opts.burst_mttf_seconds = 600.0;
  inj.run_correlated_load(specs, opts, 4 * sim::kHour);
  sim.run_until(5 * sim::kHour);

  // Events must come in whole-row groups: 4 injections at one instant, 4
  // repairs at another.
  ASSERT_FALSE(inj.log().empty());
  ASSERT_EQ(inj.log().size() % 4, 0u);
  for (std::size_t i = 0; i < inj.log().size(); i += 4) {
    for (std::size_t j = 1; j < 4; ++j) {
      EXPECT_EQ(inj.log()[i + j].at, inj.log()[i].at);
      EXPECT_EQ(inj.log()[i + j].is_repair, inj.log()[i].is_repair);
    }
  }
  EXPECT_EQ(target.active, 0);
}

TEST(GrayTestbed, InjectAndRepairRouteToTheRightSubstrate) {
  sim::Simulator sim;
  harness::TestbedOptions opts =
      harness::default_testbed_options(harness::ServerConfig::kCoop, 5);
  harness::Testbed tb(sim, opts);

  tb.inject(fault::FaultType::kLinkLossy, 1);
  EXPECT_TRUE(tb.cluster_net().link_quality(1).degraded());
  EXPECT_TRUE(tb.cluster_net().path_up(0, 1));
  tb.repair(fault::FaultType::kLinkLossy, 1);
  EXPECT_FALSE(tb.cluster_net().link_quality(1).degraded());

  tb.inject(fault::FaultType::kLinkFlap, 2);
  EXPECT_TRUE(tb.cluster_net().flapping(2));
  tb.repair(fault::FaultType::kLinkFlap, 2);
  EXPECT_FALSE(tb.cluster_net().flapping(2));
  EXPECT_TRUE(tb.cluster_net().link_up(2));

  tb.inject(fault::FaultType::kNodeSlow, 0);
  EXPECT_TRUE(tb.server_host(0).limping());
  EXPECT_DOUBLE_EQ(tb.server_host(0).slow_factor(),
                   opts.gray.node_slow_factor);
  tb.repair(fault::FaultType::kNodeSlow, 0);
  EXPECT_FALSE(tb.server_host(0).limping());

  tb.inject(fault::FaultType::kDiskSlow, 3);
  EXPECT_EQ(tb.disk(3).state(), disk::Disk::State::kDegraded);
  tb.repair(fault::FaultType::kDiskSlow, 3);
  EXPECT_EQ(tb.disk(3).state(), disk::Disk::State::kOk);
}

TEST(GrayTestbed, DiskSlowRepairDoesNotClearConcurrentScsiTimeout) {
  sim::Simulator sim;
  harness::TestbedOptions opts =
      harness::default_testbed_options(harness::ServerConfig::kCoop, 5);
  harness::Testbed tb(sim, opts);
  tb.inject(fault::FaultType::kScsiTimeout, 0);
  tb.inject(fault::FaultType::kDiskSlow, 0);  // no-op: dead beats limping
  tb.repair(fault::FaultType::kDiskSlow, 0);
  EXPECT_EQ(tb.disk(0).state(), disk::Disk::State::kTimeoutFault);
  tb.repair(fault::FaultType::kScsiTimeout, 0);
  EXPECT_EQ(tb.disk(0).state(), disk::Disk::State::kOk);
}

// ---------------------------------------------------------------------------
// Acceptance: on a lossy (but alive) link, the seed membership daemon
// flaps the live node in and out of the group; the hardened (accrual +
// 2PC-retry) daemon keeps the view stable.
// ---------------------------------------------------------------------------

int count_events(const std::vector<harness::Testbed::LogEvent>& log,
                 const std::string& what, sim::Time after) {
  int n = 0;
  for (const auto& ev : log) n += (ev.at >= after && ev.what == what);
  return n;
}

int membership_flaps(bool hardened, std::uint64_t seed) {
  sim::Simulator sim;
  harness::TestbedOptions opts =
      harness::default_testbed_options(harness::ServerConfig::kMem, seed);
  opts.offered_rps = 200;  // light load: this test is about the daemons
  opts.warmup = 60 * sim::kSecond;
  opts.operator_enabled = false;
  opts.hardened_detectors = hardened;
  opts.gray.loss_probability = 0.40;
  harness::Testbed tb(sim, opts);
  tb.start();
  sim.run_until(opts.warmup);

  const sim::Time inject_at = opts.warmup + 10 * sim::kSecond;
  sim.schedule_at(inject_at, [&] {
    tb.inject(fault::FaultType::kLinkLossy, 1);
  });
  sim.run_until(inject_at + 900 * sim::kSecond);
  return count_events(tb.log(), "mem_member_removed", inject_at);
}

TEST(GrayAcceptance, SeedMembershipFlapsOnLossyLinkHardenedDoesNot) {
  EXPECT_GT(membership_flaps(/*hardened=*/false, 11), 0);
  EXPECT_EQ(membership_flaps(/*hardened=*/true, 11), 0);
}

}  // namespace
}  // namespace availsim
