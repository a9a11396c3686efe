// Tests for the cross-subsystem invariant auditor (trace/auditor.hpp):
// synthetic record streams exercise every invariant in both directions —
// a legal stream passes clean, and each illegal transition is flagged.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "availsim/sim/time.hpp"
#include "availsim/trace/auditor.hpp"
#include "availsim/trace/trace.hpp"

namespace availsim {
namespace {

using trace::Auditor;
using trace::AuditorConfig;
using trace::Category;
using trace::Kind;
using trace::Tracer;
using trace::TracerOptions;
using trace::Violation;

class AuditorTest : public ::testing::Test {
 protected:
  AuditorTest() : tracer_(TracerOptions{trace::kAllCategories, 256}) {}

  Auditor& make_auditor(AuditorConfig cfg = default_config()) {
    auditor_ = std::make_unique<Auditor>(tracer_, cfg);
    auditor_->on_violation = [this](const Violation& v) {
      violations_.push_back(v);
    };
    return *auditor_;
  }

  static AuditorConfig default_config() {
    AuditorConfig cfg;
    // The stock internal-ring deadline: tolerance 3 * period 5s + 2.5s.
    cfg.hb_deadline = 17 * sim::kSecond + 500 * sim::kMillisecond;
    cfg.qmon_enabled = true;
    return cfg;
  }

  void emit(sim::Time at, Category cat, Kind kind, std::int32_t node,
            std::int64_t a = 0, std::int64_t b = 0, std::int64_t c = 0) {
    tracer_.emit(at, cat, kind, node, a, b, c);
  }

  std::vector<std::string> invariants() const {
    std::vector<std::string> out;
    out.reserve(violations_.size());
    for (const auto& v : violations_) out.push_back(v.invariant);
    return out;
  }

  Tracer tracer_;
  std::unique_ptr<Auditor> auditor_;
  std::vector<Violation> violations_;
};

TEST_F(AuditorTest, MonotoneTime) {
  make_auditor();
  emit(100, Category::kPress, Kind::kPressHbSeen, 0, 1);
  emit(100, Category::kPress, Kind::kPressHbSeen, 0, 1);  // equal is fine
  EXPECT_TRUE(violations_.empty());
  emit(50, Category::kPress, Kind::kPressHbSeen, 0, 1);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].invariant, "monotone-time");
}

TEST_F(AuditorTest, RequestConservation) {
  make_auditor();
  emit(1, Category::kWorkload, Kind::kReqSend, 5, 1000);
  emit(2, Category::kWorkload, Kind::kReqOk, 5, 1000);
  // Same id on a *different* client host is a distinct request.
  emit(3, Category::kWorkload, Kind::kReqSend, 6, 1000);
  emit(4, Category::kWorkload, Kind::kReqFail, 6, 1000, 2);
  EXPECT_TRUE(violations_.empty());

  emit(5, Category::kWorkload, Kind::kReqSend, 5, 2000);
  emit(6, Category::kWorkload, Kind::kReqSend, 5, 2000);  // reused id
  emit(7, Category::kWorkload, Kind::kReqOk, 5, 2000);
  emit(8, Category::kWorkload, Kind::kReqOk, 5, 2000);  // terminated twice
  emit(9, Category::kWorkload, Kind::kReqOk, 5, 3000);  // never sent
  EXPECT_EQ(invariants(),
            (std::vector<std::string>{"request-conservation",
                                      "request-conservation",
                                      "request-conservation"}));
}

TEST_F(AuditorTest, CoopSetLegalLifecyclePasses) {
  make_auditor();
  emit(1, Category::kPress, Kind::kPressStart, 0, 0b0001);
  emit(2, Category::kPress, Kind::kPressAddMember, 0, 1, 0b0011);
  emit(3, Category::kPress, Kind::kPressAddMember, 0, 2, 0b0111);
  emit(4, Category::kPress, Kind::kPressExclude, 0, 1, 0b0101);
  emit(5, Category::kPress, Kind::kPressSelfExclude, 0, 0, 0b0001);
  emit(6, Category::kPress, Kind::kPressRejoin, 0, 0, 0b0111);
  EXPECT_TRUE(violations_.empty()) << violations_[0].detail;
}

TEST_F(AuditorTest, CoopSetIllegalTransitions) {
  make_auditor();
  emit(1, Category::kPress, Kind::kPressStart, 0, 0b0010);  // excludes self
  emit(2, Category::kPress, Kind::kPressAddMember, 1, 2, 0b0110);  // not up
  emit(3, Category::kPress, Kind::kPressStart, 1, 0b0011);
  emit(4, Category::kPress, Kind::kPressAddMember, 1, 0, 0b0011);  // re-add
  emit(5, Category::kPress, Kind::kPressExclude, 1, 3, 0b0011);  // non-member
  emit(6, Category::kPress, Kind::kPressExclude, 1, 0, 0b0111);  // wrong mask
  EXPECT_EQ(invariants(),
            (std::vector<std::string>{"coop-set", "coop-set", "coop-set",
                                      "coop-set", "coop-set"}));
}

// Nodes from 64 up have no bit in a record's 64-bit mask. The auditor
// follows each coop set by the subjects of its records instead, so it still
// catches illegal transitions there.
TEST_F(AuditorTest, CoopSetIllegalTransitionsPast64Nodes) {
  make_auditor();
  for (std::int32_t n = 97; n <= 101; ++n) {
    emit(1, Category::kPress, Kind::kPressStart, n, 0);  // alone, no bit
  }
  emit(2, Category::kPress, Kind::kPressAddMember, 100, 101, 0);
  emit(3, Category::kPress, Kind::kPressAddMember, 100, 99, 0);
  emit(4, Category::kPress, Kind::kPressAddMember, 100, 1, 0b010);
  emit(5, Category::kPress, Kind::kPressAddMember, 100, 2, 0b110);
  emit(6, Category::kPress, Kind::kPressExclude, 100, 99, 0b110);
  emit(7, Category::kPress, Kind::kPressAddMember, 101, 100, 0);
  emit(8, Category::kPress, Kind::kPressAddMember, 98, 97, 0);
  ASSERT_TRUE(violations_.empty()) << violations_[0].detail;

  emit(9, Category::kPress, Kind::kPressAddMember, 100, 101, 0b110);
  emit(10, Category::kPress, Kind::kPressExclude, 100, 97, 0b110);
  // Self-exclusion leaves {100}, whose mask is empty: naming 1 and 2 is
  // illegal.
  emit(11, Category::kPress, Kind::kPressSelfExclude, 100, 0, 0b110);
  ASSERT_EQ(invariants(), (std::vector<std::string>{"coop-set", "coop-set",
                                                    "coop-set"}));
  EXPECT_EQ(violations_[0].detail, "node 100 re-added member 101");
  EXPECT_EQ(violations_[1].detail, "node 100 excluded non-member 97");
  EXPECT_EQ(violations_[2].detail,
            "self-exclusion of node 100 left a non-singleton set {1,2}");
}

// A static start (no membership protocol) names its whole set only in the
// 64-bit mask, so members from 64 up are unknown: excluding one is legal.
// Members below 64 are still checked.
TEST_F(AuditorTest, CoopSetStaticStartPast64Nodes) {
  make_auditor();
  const std::uint64_t all = ~std::uint64_t{0};  // nodes 0-63 (and more)
  const std::uint64_t no5 = all & ~(std::uint64_t{1} << 5);
  emit(1, Category::kPress, Kind::kPressStart, 100,
       static_cast<std::int64_t>(all));
  emit(2, Category::kPress, Kind::kPressExclude, 100, 120,
       static_cast<std::int64_t>(all));
  emit(3, Category::kPress, Kind::kPressExclude, 100, 5,
       static_cast<std::int64_t>(no5));
  EXPECT_TRUE(violations_.empty()) << violations_[0].detail;
  emit(4, Category::kPress, Kind::kPressExclude, 100, 5,
       static_cast<std::int64_t>(no5));
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].detail, "node 100 excluded non-member 5");
}

TEST_F(AuditorTest, CoopSetStateClearedByStop) {
  make_auditor();
  emit(1, Category::kPress, Kind::kPressStart, 0, 0b0011);
  emit(2, Category::kPress, Kind::kPressStop, 0);
  // A change on a stopped process is illegal even if the mask math works.
  emit(3, Category::kPress, Kind::kPressExclude, 0, 1, 0b0001);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].invariant, "coop-set");
}

TEST_F(AuditorTest, HeartbeatRingDeadline) {
  make_auditor();
  const sim::Time deadline = default_config().hb_deadline;
  const sim::Time t0 = 100 * sim::kSecond;
  emit(t0, Category::kPress, Kind::kPressHbSeen, 2, 1);
  // Exclusion exactly at the deadline is premature: the detector only
  // fires strictly after the full silence window.
  emit(t0 + deadline, Category::kPress, Kind::kPressDetect, 2, 1);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].invariant, "heartbeat-ring");

  violations_.clear();
  emit(t0 + deadline + 1, Category::kPress, Kind::kPressDetect, 2, 1);
  EXPECT_TRUE(violations_.empty());

  // Suspecting a neighbour never heard from at all is also illegal.
  emit(t0 + deadline + 2, Category::kPress, Kind::kPressDetect, 2, 3);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].invariant, "heartbeat-ring");
}

TEST_F(AuditorTest, HeartbeatCheckDisabledWithoutDeadline) {
  AuditorConfig cfg = default_config();
  cfg.hb_deadline = 0;  // external-membership configs have no ring
  make_auditor(cfg);
  emit(1, Category::kPress, Kind::kPressDetect, 2, 1);
  EXPECT_TRUE(violations_.empty());
}

TEST_F(AuditorTest, QueueAccounting) {
  make_auditor();
  emit(1, Category::kQmon, Kind::kQueuePush, 0, 1, 1, 1);
  emit(2, Category::kQmon, Kind::kQueuePush, 0, 1, 2, 2);
  emit(3, Category::kQmon, Kind::kQueuePop, 0, 1, 1, 1);
  emit(4, Category::kQmon, Kind::kQueuePop, 0, 1, 0, 0);
  EXPECT_TRUE(violations_.empty());

  emit(5, Category::kQmon, Kind::kQueuePush, 0, 1, 3, 3);  // skipped 1,2
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].invariant, "queue-accounting");

  violations_.clear();
  // A purge resets the ledger: the next push starts from empty again.
  emit(6, Category::kQmon, Kind::kQueuePurge, 0, 1);
  emit(7, Category::kQmon, Kind::kQueuePush, 0, 1, 1, 1);
  EXPECT_TRUE(violations_.empty());
}

TEST_F(AuditorTest, QueueThresholds) {
  AuditorConfig cfg = default_config();
  cfg.reroute_requests = 2;
  cfg.fail_requests = 3;
  cfg.fail_total = 5;
  make_auditor(cfg);
  // Growing exactly to the fail threshold is legal (the monitor fails the
  // peer right after that push); growing past it is not.
  emit(1, Category::kQmon, Kind::kQueuePush, 0, 1, 1, 1);
  emit(2, Category::kQmon, Kind::kQueuePush, 0, 1, 2, 2);
  emit(3, Category::kQmon, Kind::kQueuePush, 0, 1, 3, 3);
  EXPECT_TRUE(violations_.empty());
  emit(4, Category::kQmon, Kind::kQueuePush, 0, 1, 4, 4);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].invariant, "queue-threshold");

  violations_.clear();
  emit(5, Category::kQmon, Kind::kQueueReroute, 0, 1, 1);  // below 2
  emit(6, Category::kQmon, Kind::kQueueReroute, 0, 1, 2);  // at threshold: ok
  emit(7, Category::kQmon, Kind::kQueueFail, 0, 1, 2, 4);  // below both
  emit(8, Category::kQmon, Kind::kQueueFail, 0, 1, 2, 5);  // total tripped: ok
  EXPECT_EQ(invariants(),
            (std::vector<std::string>{"queue-threshold", "queue-threshold"}));
}

TEST_F(AuditorTest, QueueChecksInertWithoutQmon) {
  AuditorConfig cfg = default_config();
  cfg.qmon_enabled = false;
  make_auditor(cfg);
  emit(1, Category::kQmon, Kind::kQueueReroute, 0, 1, 0);
  emit(2, Category::kQmon, Kind::kQueueFail, 0, 1, 0, 0);
  EXPECT_TRUE(violations_.empty());
}

TEST_F(AuditorTest, MembershipTwoPhaseCommit) {
  make_auditor();
  emit(1, Category::kMembership, Kind::kMemCommit, 0, 7, 0b0011, 1);
  emit(2, Category::kMembership, Kind::kMemCommit, 1, 7, 0b0011, 1);
  // change id 0 is the stale-join refresh, exempt from the 2PC invariant.
  emit(3, Category::kMembership, Kind::kMemCommit, 2, 0, 0b0001, 1);
  emit(4, Category::kMembership, Kind::kMemCommit, 3, 0, 0b1000, 1);
  EXPECT_TRUE(violations_.empty());
  emit(5, Category::kMembership, Kind::kMemCommit, 2, 7, 0b0111, 1);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].invariant, "membership-2pc");
}

TEST_F(AuditorTest, MembershipViewSanity) {
  make_auditor();
  emit(1, Category::kMembership, Kind::kMemStart, 2, 0b0100);
  emit(2, Category::kMembership, Kind::kMemViewInstall, 2, 0b0110, 1);
  emit(3, Category::kMembership, Kind::kMemViewInstall, 2, 0b0010, 2);  // no self
  emit(4, Category::kMembership, Kind::kMemViewInstall, 2, 0b0110, 2);  // stale
  EXPECT_EQ(invariants(),
            (std::vector<std::string>{"membership-view", "membership-view"}));
}

TEST_F(AuditorTest, MembershipAgreementAtQuiescence) {
  make_auditor();
  emit(1, Category::kMembership, Kind::kMemStart, 0, 0b0001);
  emit(2, Category::kMembership, Kind::kMemStart, 1, 0b0010);
  emit(3, Category::kMembership, Kind::kMemViewInstall, 0, 0b0011, 1);
  emit(4, Category::kMembership, Kind::kMemViewInstall, 1, 0b0011, 1);
  // Agreement holds: ticks stay quiet no matter how late.
  emit(300 * sim::kSecond, Category::kHarness, Kind::kAuditTick, -1);
  EXPECT_TRUE(violations_.empty());

  emit(301 * sim::kSecond, Category::kMembership, Kind::kMemViewInstall, 1,
       0b0010, 2);
  // Too soon after the view change: the check must hold its fire.
  emit(330 * sim::kSecond, Category::kHarness, Kind::kAuditTick, -1);
  EXPECT_TRUE(violations_.empty());
  // A minute of stability later the divergence is a genuine violation.
  emit(400 * sim::kSecond, Category::kHarness, Kind::kAuditTick, -1);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].invariant, "membership-agreement");
}

TEST_F(AuditorTest, MembershipAgreementIgnoresFaultyAndStoppedNodes) {
  make_auditor();
  emit(1, Category::kMembership, Kind::kMemStart, 0, 0b0001);
  emit(2, Category::kMembership, Kind::kMemStart, 1, 0b0010);
  emit(3, Category::kMembership, Kind::kMemViewInstall, 0, 0b0001, 1);
  emit(4, Category::kMembership, Kind::kMemViewInstall, 1, 0b0010, 1);
  // Divergent — but a fault is active, so no claim of quiescence holds.
  emit(10 * sim::kSecond, Category::kFault, Kind::kFaultInject, 1, 3);
  emit(300 * sim::kSecond, Category::kHarness, Kind::kAuditTick, -1);
  EXPECT_TRUE(violations_.empty());
  // Repaired, but the post-fault quiet period has not elapsed yet.
  emit(310 * sim::kSecond, Category::kFault, Kind::kFaultRepair, 1, 3);
  emit(360 * sim::kSecond, Category::kHarness, Kind::kAuditTick, -1);
  EXPECT_TRUE(violations_.empty());
  // One daemon stops; the survivor's opinion is trivially unanimous.
  emit(400 * sim::kSecond, Category::kMembership, Kind::kMemStop, 1);
  emit(600 * sim::kSecond, Category::kHarness, Kind::kAuditTick, -1);
  EXPECT_TRUE(violations_.empty());
}

TEST_F(AuditorTest, FmePolicyConfirmAndCooldown) {
  make_auditor();
  const sim::Time t0 = 10 * sim::kSecond;
  emit(t0, Category::kFme, Kind::kFmeStart, 1);
  emit(t0 + 1, Category::kFme, Kind::kFmeProbeFail, 1);
  // One failure is below confirm=2: acting now is a policy violation.
  emit(t0 + 2, Category::kFme, Kind::kFmeRestart, 1);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].invariant, "fme-policy");

  violations_.clear();
  emit(t0 + 3, Category::kFme, Kind::kFmeProbeFail, 1);
  emit(t0 + 4, Category::kFme, Kind::kFmeProbeFail, 1);
  // Within the 30s cooldown of the previous restart.
  emit(t0 + 5 * sim::kSecond, Category::kFme, Kind::kFmeRestart, 1);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].invariant, "fme-policy");

  violations_.clear();
  emit(t0 + 40 * sim::kSecond, Category::kFme, Kind::kFmeProbeFail, 1);
  emit(t0 + 45 * sim::kSecond, Category::kFme, Kind::kFmeProbeFail, 1);
  emit(t0 + 50 * sim::kSecond, Category::kFme, Kind::kFmeRestart, 1);
  EXPECT_TRUE(violations_.empty()) << violations_[0].detail;

  // A probe success resets the streak: acting right after one is illegal.
  emit(t0 + 100 * sim::kSecond, Category::kFme, Kind::kFmeProbeFail, 1);
  emit(t0 + 101 * sim::kSecond, Category::kFme, Kind::kFmeProbeFail, 1);
  emit(t0 + 102 * sim::kSecond, Category::kFme, Kind::kFmeProbeOk, 1);
  emit(t0 + 103 * sim::kSecond, Category::kFme, Kind::kFmeRestart, 1);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].invariant, "fme-policy");
}

TEST_F(AuditorTest, FmeOfflineRequiresFaultyDisk) {
  make_auditor();
  emit(1, Category::kFme, Kind::kFmeStart, 1);
  emit(2, Category::kFme, Kind::kFmeProbeFail, 1);
  emit(3, Category::kFme, Kind::kFmeProbeFail, 1);
  // Confirmed failures but every disk is healthy: must restart, not offline.
  emit(4, Category::kFme, Kind::kFmeOffline, 1);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].invariant, "fme-policy");

  violations_.clear();
  emit(5, Category::kDisk, Kind::kDiskFail, 1, 0);
  emit(6, Category::kFme, Kind::kFmeProbeFail, 1);
  emit(7, Category::kFme, Kind::kFmeProbeFail, 1);
  emit(8, Category::kFme, Kind::kFmeOffline, 1);
  EXPECT_TRUE(violations_.empty()) << violations_[0].detail;

  // After the disk is repaired the offline action loses its justification.
  emit(9, Category::kDisk, Kind::kDiskRepair, 1, 0);
  emit(10, Category::kFme, Kind::kFmeProbeFail, 1);
  emit(11, Category::kFme, Kind::kFmeProbeFail, 1);
  emit(12, Category::kFme, Kind::kFmeOffline, 1);
  ASSERT_EQ(violations_.size(), 1u);
}

TEST_F(AuditorTest, FaultInjectionPairing) {
  make_auditor();
  emit(1, Category::kFault, Kind::kFaultInject, 2, 4);
  emit(2, Category::kFault, Kind::kFaultRepair, 2, 4);
  emit(3, Category::kFault, Kind::kFaultInject, 2, 4);  // re-inject: legal
  EXPECT_TRUE(violations_.empty());
  emit(4, Category::kFault, Kind::kFaultInject, 2, 4);  // double-inject
  emit(5, Category::kFault, Kind::kFaultRepair, 3, 4);  // never injected
  EXPECT_EQ(invariants(),
            (std::vector<std::string>{"fault-injection", "fault-injection"}));
}

TEST_F(AuditorTest, CountsRecordsAndKeepsViolationLog) {
  Auditor& auditor = make_auditor();
  emit(1, Category::kPress, Kind::kPressHbSeen, 0, 1);
  emit(2, Category::kPress, Kind::kPressHbSeen, 0, 1);
  EXPECT_EQ(auditor.records_audited(), 2u);
  EXPECT_TRUE(auditor.violations().empty());
  emit(1, Category::kPress, Kind::kPressHbSeen, 0, 1);  // time reversal
  EXPECT_EQ(auditor.violations().size(), 1u);
  EXPECT_FALSE(auditor.format_window().empty());
}

}  // namespace
}  // namespace availsim
