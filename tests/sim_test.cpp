#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "availsim/sim/id_ring.hpp"
#include "availsim/sim/node_set.hpp"
#include "availsim/sim/rng.hpp"
#include "availsim/sim/simulator.hpp"
#include "availsim/sim/time.hpp"
#include "availsim/trace/trace.hpp"

namespace availsim::sim {
namespace {

// Heap entries are plain (t, seq, slot) triples; callables live in the
// simulator's slot table, so sifting never moves a closure.
static_assert(std::is_trivially_copyable_v<QueuedEvent>);
static_assert(sizeof(QueuedEvent) <= 24);

TEST(Time, Conversions) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(kMinute), 60.0);
  EXPECT_EQ(kHour, 3600 * kSecond);
  EXPECT_EQ(kDay, 24 * kHour);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3 * kSecond, [&] { order.push_back(3); });
  sim.schedule_at(1 * kSecond, [&] { order.push_back(1); });
  sim.schedule_at(2 * kSecond, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3 * kSecond);
}

TEST(Simulator, SameTimeEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(kSecond, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, EmptySimulatorHasNothingToStep) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulator, LateScheduledEventAtSharedInstantFiresAfterEarlierOnes) {
  // Events scheduled for one instant fire in schedule order, however far
  // apart in time they were scheduled: one added after the clock has
  // moved, and one added by a handler running at that instant, both come
  // after the events already queued there. A pre-existing id cancelled
  // after the clock moved never fires.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(50 * kSecond, [&] {
    order.push_back(1);
    sim.schedule_after(0, [&order] { order.push_back(5); });
  });
  const EventId doomed =
      sim.schedule_at(50 * kSecond, [&order] { order.push_back(-1); });
  sim.schedule_at(50 * kSecond, [&order] { order.push_back(2); });
  sim.schedule_at(60 * kSecond, [&order] { order.push_back(6); });
  sim.run_until(40 * kSecond);
  sim.cancel(doomed);
  sim.schedule_at(50 * kSecond, [&order] { order.push_back(3); });
  sim.schedule_at(50 * kSecond, [&order] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(Simulator, StepTraceCarriesEachEventsScheduleSeq) {
  // With kSim traced, every step emits one record whose `a` field is the
  // event's global schedule seq (1, 2, ... in schedule_at order), in
  // (t, seq) firing order.
  trace::TracerOptions topts;
  topts.mask = static_cast<std::uint32_t>(trace::Category::kSim);
  trace::Tracer tracer(topts);
  Simulator sim;
  sim.set_tracer(&tracer);
  sim.schedule_at(3 * kSecond, [] {});  // seq 1
  sim.schedule_at(1 * kSecond, [] {});  // seq 2
  sim.schedule_at(2 * kSecond, [] {});  // seq 3
  sim.schedule_at(1 * kSecond, [] {});  // seq 4
  sim.run();
  sim.set_tracer(nullptr);
  std::vector<std::pair<Time, std::int64_t>> steps;
  for (const trace::TraceRecord& rec : tracer.snapshot()) {
    ASSERT_EQ(rec.kind, trace::Kind::kSimStep);
    steps.emplace_back(rec.at, rec.a);
  }
  EXPECT_EQ(steps, (std::vector<std::pair<Time, std::int64_t>>{
                       {1 * kSecond, 2},
                       {1 * kSecond, 4},
                       {2 * kSecond, 3},
                       {3 * kSecond, 1}}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  Time fired = -1;
  sim.schedule_at(5 * kSecond, [&] {
    sim.schedule_after(2 * kSecond, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, 7 * kSecond);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  Time fired = -1;
  sim.schedule_at(kSecond, [&] {
    sim.schedule_after(-5 * kSecond, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, kSecond);
}

TEST(Simulator, PastAbsoluteTimeClampsToNow) {
  Simulator sim;
  Time fired = -1;
  sim.schedule_at(10 * kSecond, [&] {
    sim.schedule_at(2 * kSecond, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, 10 * kSecond);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.schedule_at(kSecond, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelInvalidOrFiredIsNoop) {
  Simulator sim;
  int count = 0;
  EventId id = sim.schedule_at(kSecond, [&] { ++count; });
  sim.run();
  sim.cancel(id);           // already fired
  sim.cancel(kInvalidEvent);  // invalid
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(42 * kSecond);
  EXPECT_EQ(sim.now(), 42 * kSecond);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  bool early = false, late = false;
  sim.schedule_at(kSecond, [&] { early = true; });
  sim.schedule_at(10 * kSecond, [&] { late = true; });
  sim.run_until(5 * kSecond);
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.now(), 5 * kSecond);
  sim.run();
  EXPECT_TRUE(late);
}

// Regression: cancelling the head of the queue must not let run_until(t)
// execute an event with timestamp > t (step() once popped the cancelled
// head and then ran the *next* real event regardless of its time).
TEST(Simulator, RunUntilDoesNotRunPastTargetBehindCancelledHead) {
  Simulator sim;
  bool late = false;
  EventId head = sim.schedule_at(kSecond, [] {});
  sim.schedule_at(10 * kSecond, [&] { late = true; });
  sim.cancel(head);
  sim.run_until(5 * kSecond);
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.now(), 5 * kSecond);
  sim.run();
  EXPECT_TRUE(late);
  EXPECT_EQ(sim.now(), 10 * kSecond);
}

// Regression: pending() must report live events, never cancelled ones.
TEST(Simulator, PendingCountsLiveEventsOnly) {
  Simulator sim;
  EventId a = sim.schedule_at(1 * kSecond, [] {});
  sim.schedule_at(2 * kSecond, [] {});
  sim.schedule_at(3 * kSecond, [] {});
  EXPECT_EQ(sim.pending(), 3u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);  // double-cancel must not double-count
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_processed(), 2u);
}

// Regression: cancelling already-fired or never-live ids over and over must
// stay an exact no-op — it used to insert a tombstone per call into a set
// that was never drained, and it must never kill a newer event whose
// handle slot was recycled.
TEST(Simulator, StaleCancelsAreNoopsAndNeverHitRecycledSlots) {
  Simulator sim;
  std::vector<EventId> fired_ids;
  for (int i = 0; i < 16; ++i) {
    fired_ids.push_back(sim.schedule_at(i * kSecond, [] {}));
  }
  sim.run();
  int count = 0;
  // New events recycle the fired events' handle slots.
  for (int i = 0; i < 16; ++i) {
    sim.schedule_after(kSecond, [&] { ++count; });
  }
  for (int repeat = 0; repeat < 1000; ++repeat) {
    for (EventId stale : fired_ids) sim.cancel(stale);
  }
  EXPECT_EQ(sim.pending(), 16u);
  sim.run();
  EXPECT_EQ(count, 16);
}

TEST(Simulator, RunUntilPurgesCancelledHeadWithoutAdvancingClock) {
  Simulator sim;
  EventId head = sim.schedule_at(kSecond, [] {});
  sim.cancel(head);
  sim.run_until(kSecond / 2);
  EXPECT_EQ(sim.now(), kSecond / 2);
  EXPECT_EQ(sim.events_processed(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, MoveOnlyCallablesCanBeScheduled) {
  // EventFn is move-only, so captures that std::function rejects work.
  Simulator sim;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  sim.schedule_after(kSecond, [p = std::move(payload), &seen] { seen = *p + 1; });
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, LargeCapturesFallBackToHeapCorrectly) {
  Simulator sim;
  std::array<std::uint64_t, 64> big{};  // 512 bytes: beyond inline storage
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i;
  std::uint64_t sum = 0;
  sim.schedule_after(kSecond, [big, &sum] {
    for (auto v : big) sum += v;
  });
  sim.run();
  EXPECT_EQ(sum, 64u * 63u / 2u);
}

TEST(Simulator, CaptureReleasedWhenEventFires) {
  Simulator sim;
  auto probe = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = probe;
  int seen = 0;
  sim.schedule_after(kSecond, [p = std::move(probe), &seen] { seen = *p; });
  EXPECT_FALSE(watch.expired());  // the slot table holds it while pending
  sim.run();
  EXPECT_EQ(seen, 7);
  EXPECT_TRUE(watch.expired());
}

TEST(Simulator, CancelReleasesCaptureAtOnce) {
  Simulator sim;
  auto probe = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = probe;
  const EventId id = sim.schedule_after(
      kSecond, [p = std::move(probe)] { ADD_FAILURE() << "cancelled ran"; });
  sim.schedule_after(2 * kSecond, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(id);
  // cancel() removes the event itself: its capture and its place in the
  // pending count go at once, before the clock moves.
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(kSecond / 2);
  EXPECT_EQ(sim.now(), kSecond / 2);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunningEventCancellingItsOwnIdIsNoop) {
  // The running event's slot is already released, so its own id is stale:
  // cancelling it must not hit the event that reused the slot.
  Simulator sim;
  std::vector<int> log;
  EventId self = kInvalidEvent;
  self = sim.schedule_after(kSecond, [&sim, &log, &self] {
    sim.schedule_after(kSecond, [&log] { log.push_back(2); });
    sim.cancel(self);
    log.push_back(1);
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulator, EventReusingItsOwnSlotKeepsItsCaptures) {
  // A firing event's slot is released before it runs, so the first event
  // it schedules lands in that very slot. Its own captures must survive
  // the slot being overwritten.
  Simulator sim;
  auto payload = std::make_shared<std::vector<int>>(std::vector<int>{1, 2, 3});
  const std::weak_ptr<std::vector<int>> watch = payload;
  std::vector<int> log;
  EventId first = kInvalidEvent;
  first = sim.schedule_after(kSecond, [&sim, &log, &first, &watch,
                                       p = std::move(payload)] {
    const EventId next =
        sim.schedule_after(kSecond, [&log] { log.push_back(99); });
    EXPECT_EQ(static_cast<std::uint32_t>(next),
              static_cast<std::uint32_t>(first));  // same slot
    EXPECT_NE(next, first);                        // newer generation
    EXPECT_FALSE(watch.expired());  // still owned by the running event
    for (int v : *p) log.push_back(v);
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 99}));
  EXPECT_TRUE(watch.expired());
}

TEST(Simulator, CancelInterleavedWithSameTimeEventsKeepsFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.schedule_at(kSecond, [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 10; i += 2) sim.cancel(ids[static_cast<size_t>(i)]);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 5; ++i) {
    sim.schedule_at(i * kSecond, [&] {
      ++count;
      if (count == 2) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 2);
  sim.run();  // resumes
  EXPECT_EQ(count, 5);
}

TEST(Simulator, EventsScheduledFromHandlersRun) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_after(kMillisecond, recurse);
  };
  sim.schedule_after(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.events_processed(), 100u);
}

TEST(NodeSet, MembershipIterationAndMask) {
  NodeSet s{130, 3, 64, 0};
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(std::vector<int>(s.begin(), s.end()),
            (std::vector<int>{0, 3, 64, 130}));
  EXPECT_FALSE(s.insert(3));
  EXPECT_TRUE(s.contains(130));
  EXPECT_FALSE(s.contains(-1));
  EXPECT_FALSE(s.contains(1000));
  EXPECT_TRUE(s.erase(64));
  EXPECT_FALSE(s.erase(64));
  EXPECT_FALSE(s.erase(999));
  EXPECT_EQ(s.mask(), 0b1001u);  // 130 has no bit
  EXPECT_EQ(*s.begin(), 0);
}

TEST(NodeSet, RingNeighboursWrapAround) {
  const NodeSet ring{2, 5, 70};
  EXPECT_EQ(ring.after(2), 5);
  EXPECT_EQ(ring.after(5), 70);
  EXPECT_EQ(ring.after(70), 2);
  EXPECT_EQ(ring.before(2), 70);
  EXPECT_EQ(ring.before(5), 2);
  EXPECT_EQ(ring.before(70), 5);
  const NodeSet alone{9};
  EXPECT_EQ(alone.after(9), 9);
  EXPECT_EQ(alone.before(9), 9);
}

TEST(NodeSet, EqualityIgnoresStorageLength) {
  NodeSet a{1, 2};
  NodeSet b{1, 2, 200};
  EXPECT_NE(a, b);
  b.erase(200);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, a);
  NodeSet cleared{500};
  cleared.clear();
  EXPECT_TRUE(cleared.empty());
  EXPECT_EQ(cleared, NodeSet{});
  EXPECT_TRUE(cleared.begin() == cleared.end());
}

TEST(NodeSet, MatchesStdSetUnderRandomEdits) {
  Rng rng(3);
  NodeSet s;
  std::set<int> oracle;
  for (int i = 0; i < 5000; ++i) {
    const int id = static_cast<int>(rng.uniform_int(0, 199));
    if (rng.bernoulli(0.5)) {
      ASSERT_EQ(s.insert(id), oracle.insert(id).second);
    } else {
      ASSERT_EQ(s.erase(id), oracle.erase(id) == 1);
    }
    ASSERT_EQ(s.size(), oracle.size());
  }
  EXPECT_EQ(std::vector<int>(s.begin(), s.end()),
            std::vector<int>(oracle.begin(), oracle.end()));
}

TEST(IdRing, GapsTrimAndGrowth) {
  IdRing<int> r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.find(0), nullptr);
  r.insert(5, 50);
  r.insert(7, 70);  // 6 is skipped: absent
  EXPECT_EQ(r.front_id(), 5u);
  EXPECT_EQ(r.end_id(), 8u);
  EXPECT_EQ(r.find(6), nullptr);
  EXPECT_TRUE(r.erase(5));
  EXPECT_EQ(r.front_id(), 7u);  // the absent 6 is trimmed too
  EXPECT_FALSE(r.erase(5));
  for (std::uint64_t id = 8; id < 100; ++id) {
    r.insert(id, static_cast<int>(10 * id));  // grows past the first buffer
  }
  EXPECT_EQ(r.size(), 93u);
  EXPECT_EQ(*r.find(7), 70);
  EXPECT_EQ(*r.find(99), 990);
  EXPECT_EQ(r.front(), 70);
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.front_id(), 100u);
  EXPECT_EQ(r.find(50), nullptr);
  r.insert(1000, 1);  // an empty ring restarts its span at the new id
  EXPECT_EQ(r.front_id(), 1000u);
  EXPECT_EQ(r.size(), 1u);
}

TEST(IdRing, MatchesStdMapUnderRandomTraffic) {
  Rng rng(5);
  IdRing<std::uint64_t> r;
  std::map<std::uint64_t, std::uint64_t> oracle;
  std::uint64_t next = 0;
  for (int i = 0; i < 20000; ++i) {
    if (oracle.size() < 300 && rng.bernoulli(0.55)) {
      next += 1 + static_cast<std::uint64_t>(rng.uniform_int(0, 2));
      r.insert(next, 3 * next);
      oracle[next] = 3 * next;
    } else if (!oracle.empty()) {
      // Mostly the oldest entries, sometimes any, like replies and sweeps.
      auto it = oracle.begin();
      if (rng.bernoulli(0.5)) {
        std::advance(it, rng.uniform_int(
                             0, static_cast<std::int64_t>(oracle.size()) - 1));
      }
      ASSERT_TRUE(r.erase(it->first));
      oracle.erase(it);
    }
    ASSERT_EQ(r.size(), oracle.size());
    if (!oracle.empty()) {
      ASSERT_EQ(r.front_id(), oracle.begin()->first);
      ASSERT_EQ(r.front(), oracle.begin()->second);
    }
  }
  for (std::uint64_t id = 0; id <= next; ++id) {
    const auto it = oracle.find(id);
    const std::uint64_t* got = r.find(id);
    ASSERT_EQ(got != nullptr, it != oracle.end()) << id;
    if (got != nullptr) {
      EXPECT_EQ(*got, it->second);
    }
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkedStreamsAreIndependentAndStable) {
  Rng parent(7);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  Rng c1_again = parent.fork(1);
  EXPECT_EQ(c1.next_u64(), c1_again.next_u64());
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(13);
  bool lo = false, hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 5);
    lo |= (v == 2);
    hi |= (v == 5);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

class RngMomentsTest : public ::testing::TestWithParam<double> {};

TEST_P(RngMomentsTest, ExponentialMeanSweep) {
  const double mean = GetParam();
  Rng rng(static_cast<std::uint64_t>(mean * 1000) + 1);
  double sum = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(mean);
  EXPECT_NEAR(sum / n / mean, 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Means, RngMomentsTest,
                         ::testing::Values(0.01, 0.5, 2.0, 60.0, 3600.0));

}  // namespace
}  // namespace availsim::sim
