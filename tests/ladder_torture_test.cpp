// Torture tests for the simulator's pending-event set (an indexed 4-ary
// heap, sim/simulator.hpp): randomized — but seeded and fully
// deterministic — interleavings of schedule / cancel / run_until,
// cross-checked op-for-op against a reference binary heap
// (std::priority_queue with lazy cancellation) for an identical fire
// order. The suite names date from the ladder queue the indexed heap
// replaced; every case drives only the public Simulator API, so the FIFO
// cases written against the ladder's bucket and epoch boundaries still
// guard the (t, seq) contract. The HeapRemoval cases build known heap
// layouts and cancel into each branch of the in-place removal.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <queue>
#include <vector>

#include "availsim/sim/rng.hpp"
#include "availsim/sim/simulator.hpp"

namespace availsim::sim {
namespace {

// Tags >= kChildBase mark events spawned from inside a callback; they are
// never cancelled, so cancellation state only needs top-level tags.
constexpr int kChildBase = 1'000'000'000;

struct RefEvent {
  Time t;
  std::uint64_t seq;
  int tag;
};
struct RefAfter {
  bool operator()(const RefEvent& a, const RefEvent& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;  // FIFO at equal timestamps
  }
};

/// Drives one Simulator and a reference heap through the same op
/// sequence. The reference mirrors exactly the simulator's contract:
/// strict (t, seq) order, seq handed out per schedule call (including
/// calls made from inside firing events), cancels as lazy skips.
class TortureDriver {
 public:
  explicit TortureDriver(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int i = 0; i < ops; ++i) {
      const auto r = rng_.uniform_int(0, 99);
      if (r < 55) {
        schedule_random();
      } else if (r < 75) {
        cancel_random();
      } else {
        run_until_random();
      }
    }
    // Drain everything and do the final full-order comparison.
    do_run_until(sim_.now() + (std::int64_t{1} << 60));
    ASSERT_EQ(fired_actual_, fired_expected_);
    EXPECT_EQ(sim_.pending(), 0u);
  }

 private:
  void schedule_random() {
    const Time now = sim_.now();
    Time t;
    switch (rng_.uniform_int(0, 9)) {
      case 0:
      case 1:
      case 2:  // near future: dense, often near the root
        t = now + rng_.uniform_int(0, 1000);
        break;
      case 3:
      case 4:  // mid horizon
        t = now + rng_.uniform_int(0, 2 * kSecond);
        break;
      case 5:
      case 6:  // far horizon: deep leaves that outlive many run_untils
        t = now + rng_.uniform_int(0, 3600 * kSecond);
        break;
      case 7:  // in the past: the simulator clamps to now
        t = now - rng_.uniform_int(0, 1000);
        break;
      default:  // same-timestamp run: reuse the last scheduled instant
        t = last_t_ >= now ? last_t_ : now;
        break;
    }
    do_schedule(t);
  }

  void do_schedule(Time t) {
    last_t_ = t < sim_.now() ? sim_.now() : t;
    const int tag = next_tag_++;
    ids_.push_back(sim_.schedule_at(t, make_fn(tag)));
    state_.push_back(0);  // pending
    ref_.push(RefEvent{last_t_, ref_seq_++, tag});
  }

  void cancel_random() {
    if (next_tag_ == 0) return;
    // Any tag, including already-fired and already-cancelled ones: stale
    // and double cancels must be exact no-ops on both sides.
    const auto tag = static_cast<std::size_t>(
        rng_.uniform_int(0, next_tag_ - 1));
    sim_.cancel(ids_[tag]);
    if (state_[tag] == 0) state_[tag] = 2;  // cancelled while pending
  }

  void run_until_random() {
    const Time now = sim_.now();
    Time target;
    switch (rng_.uniform_int(0, 9)) {
      case 0:
      case 1:
      case 2:
        target = now + rng_.uniform_int(0, 1000);
        break;
      case 3:
      case 4:
      case 5:
        target = now + rng_.uniform_int(0, 2 * kSecond);
        break;
      case 6:
      case 7:  // long leap: drains most of the heap
        target = now + rng_.uniform_int(0, 3600 * kSecond);
        break;
      case 8:  // no-op: target == now
        target = now;
        break;
      default:  // target in the past: must fire nothing, clock holds
        target = now - rng_.uniform_int(0, 1000);
        break;
    }
    do_run_until(target);
  }

  void do_run_until(Time target) {
    sim_.run_until(target);
    while (!ref_.empty() && ref_.top().t <= target) {
      const RefEvent e = ref_.top();
      ref_.pop();
      if (e.tag < kChildBase) {
        auto& st = state_[static_cast<std::size_t>(e.tag)];
        if (st == 2) continue;  // cancelled: lazy skip
        st = 1;                 // fired
      }
      fired_expected_.push_back(e.tag);
      mirror_spawn(e.t, e.tag);
    }
    if (target > ref_now_) ref_now_ = target;
    ASSERT_EQ(sim_.now(), ref_now_);
    // Compare only the newly fired suffix (a full compare every round
    // would be quadratic); run() does one final full compare.
    ASSERT_EQ(fired_actual_.size(), fired_expected_.size());
    for (std::size_t i = checked_; i < fired_actual_.size(); ++i) {
      ASSERT_EQ(fired_actual_[i], fired_expected_[i]) << "position " << i;
    }
    checked_ = fired_actual_.size();
    ASSERT_EQ(sim_.pending(), ref_pending());
  }

  // Spawn rule, applied identically by the live callback and the
  // reference pop: every fourth top-level event schedules one child
  // tag%3 ns later (0 exercises FIFO among events scheduled *while
  // firing* at the same instant).
  static bool spawns(int tag) { return tag < kChildBase && tag % 4 == 0; }

  void mirror_spawn(Time fired_at, int tag) {
    if (!spawns(tag)) return;
    ref_.push(RefEvent{fired_at + tag % 3, ref_seq_++, kChildBase + tag});
  }

  EventFn make_fn(int tag) {
    return [this, tag] {
      fired_actual_.push_back(tag);
      if (spawns(tag)) {
        const int child = kChildBase + tag;
        sim_.schedule_after(tag % 3, [this, child] {
          fired_actual_.push_back(child);
        });
      }
    };
  }

  std::size_t ref_pending() const {
    // Top-level pendings tracked in state_; children are pending iff
    // mirrored into ref_ but not yet expected-fired. Cancelled top-level
    // tombstones still sitting in ref_ are not pending.
    std::size_t n = 0;
    for (const auto s : state_) n += (s == 0);
    std::size_t spawned = 0, child_fired = 0;
    for (const auto tag : fired_expected_) {
      spawned += spawns(tag);
      child_fired += tag >= kChildBase;
    }
    return n + spawned - child_fired;
  }

  Simulator sim_;
  Rng rng_;
  std::priority_queue<RefEvent, std::vector<RefEvent>, RefAfter> ref_;
  std::vector<EventId> ids_;       // by top-level tag
  std::vector<std::uint8_t> state_;  // by tag: 0 pending, 1 fired, 2 cancelled
  std::vector<int> fired_actual_;
  std::vector<int> fired_expected_;
  std::size_t checked_ = 0;
  std::uint64_t ref_seq_ = 1;
  Time ref_now_ = 0;
  Time last_t_ = 0;
  int next_tag_ = 0;
};

class LadderTortureTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LadderTortureTest, RandomInterleavingsMatchReferenceHeap) {
  const char* q = std::getenv("AVAILSIM_QUICK");
  const bool quick = q != nullptr && q[0] != '\0' && std::strcmp(q, "0") != 0;
  TortureDriver driver(GetParam());
  driver.run(quick ? 1500 : 6000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LadderTortureTest,
                         ::testing::Values(1u, 2u, 3u, 0xDEADBEEFu,
                                           0xA5A5A5A5u));

TEST(LadderDirected, SameTimestampFifoSpansBucketBoundaries) {
  // A flood at one instant, bracketed by neighbours 1 ns either side:
  // every comparison inside the flood falls through to seq, so FIFO
  // within it must survive thousands of sifts.
  Simulator sim;
  const Time t = 3600 * kSecond;
  std::vector<int> fired;
  sim.schedule_at(t - 1, [&fired] { fired.push_back(-1); });
  for (int i = 0; i < 10000; ++i) {
    sim.schedule_at(t, [&fired, i] { fired.push_back(i); });
  }
  sim.schedule_at(t + 1, [&fired] { fired.push_back(-2); });
  // An early straggler keeps the queue from collapsing to one instant.
  sim.schedule_at(1, [&fired] { fired.push_back(-3); });
  sim.run();
  ASSERT_EQ(fired.size(), 10003u);
  EXPECT_EQ(fired[0], -3);
  EXPECT_EQ(fired[1], -1);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(fired[static_cast<std::size_t>(i) + 2], i);
  }
  EXPECT_EQ(fired.back(), -2);
}

TEST(LadderDirected, FifoSurvivesEpochTurnover) {
  // Two floods an hour apart. The second flood is scheduled in two waves:
  // one before the clock reaches the first flood, one after the first
  // flood has drained. FIFO across the waves — scheduling order, not wave
  // order — must hold.
  Simulator sim;
  const Time t1 = 3600 * kSecond;
  const Time t2 = 2 * 3600 * kSecond;
  std::vector<int> fired;
  for (int i = 0; i < 200; ++i) {
    sim.schedule_at(t1, [&fired, i] { fired.push_back(i); });
    sim.schedule_at(t2, [&fired, i] { fired.push_back(1000 + i); });
  }
  sim.run_until(t1 + kSecond);  // drains flood 1
  ASSERT_EQ(fired.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    sim.schedule_at(t2, [&fired, i] { fired.push_back(1200 + i); });
  }
  sim.run_until(t2 + kSecond);
  ASSERT_EQ(fired.size(), 600u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(fired[static_cast<std::size_t>(i) + 200], 1000 + i);
    EXPECT_EQ(fired[static_cast<std::size_t>(i) + 400], 1200 + i);
  }
}

TEST(LadderDirected, CancelledFloodLeavesNeighboursIntact) {
  // Cancel every other event of a same-instant flood, each one removed in
  // place from the heap; survivors must still fire in FIFO order.
  Simulator sim;
  const Time t = 600 * kSecond;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.schedule_at(t, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 1000; i += 2) {
    sim.cancel(ids[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(sim.pending(), 500u);
  sim.run();
  ASSERT_EQ(fired.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(fired[static_cast<std::size_t>(i)], 2 * i + 1);
  }
}

// Schedules one event per entry of `times`, in order (event i fires tag
// i), cancels the events listed in `cancels`, schedules `later` after the
// cancels, then runs to completion and checks the fire order against the
// reference heap with lazy skips. `later` entries append behind the refill,
// so a misplaced refill is not simply re-sifted as the next pop's last
// entry.
void expect_matches_reference(const std::vector<Time>& times,
                              const std::vector<std::size_t>& cancels,
                              const std::vector<Time>& later = {}) {
  Simulator sim;
  std::vector<int> fired;
  std::vector<EventId> ids;
  std::priority_queue<RefEvent, std::vector<RefEvent>, RefAfter> ref;
  auto schedule = [&](Time t) {
    const int tag = static_cast<int>(ids.size());
    ids.push_back(sim.schedule_at(t, [&fired, tag] { fired.push_back(tag); }));
    ref.push(RefEvent{t, ids.size(), tag});
  };
  for (Time t : times) schedule(t);
  std::vector<bool> cancelled(times.size() + later.size(), false);
  for (std::size_t c : cancels) {
    sim.cancel(ids[c]);
    cancelled[c] = true;
  }
  for (Time t : later) schedule(t);
  EXPECT_EQ(sim.pending(), ids.size() - cancels.size());
  std::vector<int> expected;
  for (; !ref.empty(); ref.pop()) {
    const int tag = ref.top().tag;
    if (!cancelled[static_cast<std::size_t>(tag)]) expected.push_back(tag);
  }
  sim.run();
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.pending(), 0u);
}

// Times pushed in this order never sift, so the 4-ary heap's array is
// exactly the push order: index 0 is the root, 1-4 its children, 5-8 the
// children of 1, 9-12 the children of 2 and 13 the first child of 3.
const std::vector<Time> kLayout = {10, 20,  100, 30,  40,  21,  22,
                                   23, 24,  101, 102, 103, 104, 50};
// Late leaves under 3 and 4, behind everything else.
const std::vector<Time> kLater = {200, 201, 202, 203, 204, 205};

TEST(HeapRemoval, CancelRootMatchesReferenceHeap) {
  // The root, then the root that replaced it.
  expect_matches_reference(kLayout, {0, 1}, kLater);
}

TEST(HeapRemoval, CancelLastEntryMatchesReferenceHeap) {
  // The last array slot: removal pops it with nothing to refill.
  expect_matches_reference(kLayout, {13}, kLater);
  expect_matches_reference({10, 20, 30, 40, 50}, {4});
}

TEST(HeapRemoval, CancelInteriorSiftsReplacementUp) {
  // Index 9 (t = 101) sits under index 2 (t = 100). The last entry
  // (t = 50, under index 3) refills the hole and must sift up past 100.
  expect_matches_reference(kLayout, {9}, kLater);
}

TEST(HeapRemoval, CancelInteriorSiftsReplacementDown) {
  // Index 1 (t = 20) has children 21-24; the refill (t = 50) sifts down.
  expect_matches_reference(kLayout, {1}, kLater);
}

TEST(HeapRemoval, CancelSameTimestampNeighbourFromHandler) {
  // Four events at one instant. The first, while running, cancels the
  // second — now the root — and the rest still fire in FIFO order.
  Simulator sim;
  std::vector<int> fired;
  std::vector<EventId> ids(4, kInvalidEvent);
  ids[0] = sim.schedule_at(kSecond, [&] {
    fired.push_back(0);
    sim.cancel(ids[1]);
    EXPECT_EQ(sim.pending(), 2u);
  });
  for (int i = 1; i < 4; ++i) {
    ids[static_cast<std::size_t>(i)] =
        sim.schedule_at(kSecond, [&fired, i] { fired.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(sim.now(), kSecond);
  EXPECT_EQ(sim.events_processed(), 3u);
}

}  // namespace
}  // namespace availsim::sim
