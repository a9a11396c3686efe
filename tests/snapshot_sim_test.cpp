// Simulator-core snapshot/restore regression tests.
//
// The headline regression here (SeqAndCancellationsSurviveCheckpoint) pins
// the exactness requirement a naive restore violates: restoring by
// re-scheduling events through schedule_at() renumbers seq counters and
// slot generations, which (a) breaks FIFO tie-break order for same-instant
// events, (b) invalidates EventIds subsystems kept across the checkpoint,
// and (c) can bring back events cancelled before it.
// save_state()/restore_state() must round-trip all of it bit-exactly.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "availsim/sim/simulator.hpp"
#include "availsim/snapshot/state_io.hpp"
#include "availsim/trace/trace.hpp"

namespace availsim {
namespace {

using sim::EventId;
using sim::Simulator;
using sim::Time;

snapshot::Snapshot capture(const Simulator& s) {
  snapshot::StateWriter w;
  s.save_state(w);
  return std::move(w).finish();
}

void restore(Simulator& s, const snapshot::Snapshot& snap) {
  snapshot::StateReader r(snap);
  s.restore_state(r);
  EXPECT_TRUE(r.exhausted());
}

TEST(SnapshotSim, EmptySimulatorRoundTrips) {
  Simulator s;
  const snapshot::Snapshot snap = capture(s);
  restore(s, snap);
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.step());
}

TEST(SnapshotSim, ContinuationMatchesStraightRun) {
  // Reference run: no snapshot.
  std::vector<std::string> straight;
  {
    Simulator s;
    for (int i = 0; i < 40; ++i) {
      const Time t = (i % 7) * sim::kSecond;  // deliberate timestamp ties
      s.schedule_at(t, [&straight, i, &s] {
        straight.push_back(std::to_string(s.now()) + ":" + std::to_string(i));
        if (i % 3 == 0) {
          s.schedule_after(2 * sim::kSecond, [&straight, i, &s] {
            straight.push_back(std::to_string(s.now()) + ":r" +
                               std::to_string(i));
          });
        }
      });
    }
    s.run();
  }

  // Snapshot mid-run, dirty the world, rewind, run to completion.
  std::vector<std::string> replayed;
  Simulator s;
  for (int i = 0; i < 40; ++i) {
    const Time t = (i % 7) * sim::kSecond;
    s.schedule_at(t, [&replayed, i, &s] {
      replayed.push_back(std::to_string(s.now()) + ":" + std::to_string(i));
      if (i % 3 == 0) {
        s.schedule_after(2 * sim::kSecond, [&replayed, i, &s] {
          replayed.push_back(std::to_string(s.now()) + ":r" +
                             std::to_string(i));
        });
      }
    });
  }
  s.run_until(3 * sim::kSecond);
  const snapshot::Snapshot snap = capture(s);
  const std::size_t mark = replayed.size();
  s.run_until(5 * sim::kSecond);  // dirty continuation, to be discarded
  replayed.resize(mark);
  restore(s, snap);
  s.run();
  EXPECT_EQ(replayed, straight);
}

TEST(SnapshotSim, SeqAndCancellationsSurviveCheckpoint) {
  Simulator s;
  std::vector<std::string> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 300; ++i) {
    const Time t = (1 + i % 97) * sim::kSecond;  // same-instant runs of 3-4
    ids.push_back(s.schedule_at(t, [&fired, i, &s] {
      fired.push_back(std::to_string(s.now() / sim::kSecond) + "#" +
                      std::to_string(i));
    }));
  }
  // Cancel a third of them *before* the checkpoint, spread over the whole
  // horizon, so cancelled events fall on both sides of the snapshot.
  for (std::size_t i = 0; i < ids.size(); i += 3) s.cancel(ids[i]);
  s.run_until(40 * sim::kSecond);
  ASSERT_GT(s.pending(), 0u);

  const std::uint64_t processed_at_snap = s.events_processed();
  const std::size_t pending_at_snap = s.pending();
  const snapshot::Snapshot snap = capture(s);

  // The continuation cancels another third through pre-snapshot ids, adds
  // a fresh event at an instant pre-snapshot events already hold, and
  // returns the kSim step trace, which carries every event's raw seq.
  auto continue_run = [&] {
    fired.clear();
    trace::TracerOptions topts;
    topts.mask = static_cast<std::uint32_t>(trace::Category::kSim);
    trace::Tracer tracer(topts);
    s.set_tracer(&tracer);
    for (std::size_t i = 1; i < ids.size(); i += 3) s.cancel(ids[i]);
    s.schedule_at(50 * sim::kSecond, [&fired] { fired.push_back("fresh"); });
    s.run();
    s.set_tracer(nullptr);
    std::string steps;
    for (const trace::TraceRecord& rec : tracer.snapshot()) {
      steps += trace::format_record(rec);
      steps += '\n';
    }
    return steps;
  };
  const std::string expected_steps = continue_run();
  const std::vector<std::string> expected_tail = fired;
  const std::uint64_t processed_at_end = s.events_processed();

  // Rewind and re-run: identical steps and seqs, identical counters.
  restore(s, snap);
  EXPECT_EQ(s.events_processed(), processed_at_snap);
  EXPECT_EQ(s.pending(), pending_at_snap);
  EXPECT_EQ(continue_run(), expected_steps);
  EXPECT_EQ(fired, expected_tail);
  EXPECT_EQ(s.events_processed(), processed_at_end);

  // Neither cancelled third fires after the restore; the fresh event runs
  // after the pre-snapshot events that share its instant.
  ASSERT_FALSE(fired.empty());
  std::size_t fresh_at = fired.size();
  for (std::size_t k = 0; k < fired.size(); ++k) {
    if (fired[k] == "fresh") {
      fresh_at = k;
      continue;
    }
    const int i = std::stoi(fired[k].substr(fired[k].find('#') + 1));
    EXPECT_EQ(i % 3, 2) << fired[k];
  }
  ASSERT_LT(fresh_at, fired.size());
  ASSERT_GT(fresh_at, 0u);
  EXPECT_EQ(fired[fresh_at - 1].rfind("50#", 0), 0u) << fired[fresh_at - 1];
}

TEST(SnapshotSim, PreSnapshotEventIdsStayValidAfterRestore) {
  Simulator s;
  int fired = 0;
  // Two same-instant events; we keep the id of the second one across the
  // checkpoint and cancel it only after restore.
  s.schedule_at(sim::kSecond, [&fired] { ++fired; });
  const EventId victim = s.schedule_at(sim::kSecond, [&fired] { fired += 100; });

  const snapshot::Snapshot snap = capture(s);
  restore(s, snap);
  s.cancel(victim);  // must hit the restored event, not a renumbered one
  s.run();
  EXPECT_EQ(fired, 1);

  // And a *stale* id (already fired before the checkpoint) must stay a
  // no-op after restore: generations round-trip exactly.
  Simulator s2;
  const EventId stale = s2.schedule_at(0, [] {});
  s2.run();
  int late = 0;
  s2.schedule_at(sim::kSecond, [&late] { ++late; });
  const snapshot::Snapshot snap2 = capture(s2);
  restore(s2, snap2);
  s2.cancel(stale);
  s2.run();
  EXPECT_EQ(late, 1);
}

TEST(SnapshotSim, IdFromDiscardedBranchStaysInert) {
  // Slot 0 is free at the checkpoint. The branch after it hands slot 0 out
  // again, at the generation the restore brings back; cancelling that id
  // after the restore must not touch the restored event in slot 1.
  Simulator s;
  int fired = 0;
  s.schedule_at(0, [] {});
  s.schedule_at(sim::kSecond, [&fired] { ++fired; });
  s.run_until(0);
  const snapshot::Snapshot snap = capture(s);
  const EventId discarded = s.schedule_at(2 * sim::kSecond, [] {});
  ASSERT_EQ(static_cast<std::uint32_t>(discarded), 0u);
  restore(s, snap);
  s.cancel(discarded);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, 1);
  // The slot table stayed consistent: slot 0 is handed out exactly once.
  const EventId a = s.schedule_after(sim::kSecond, [] {});
  const EventId b = s.schedule_after(sim::kSecond, [] {});
  EXPECT_NE(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b));
}

TEST(SnapshotSim, SeqCountersNotRenumbered) {
  // Events scheduled *after* a restore must continue the original seq
  // sequence: a fresh event scheduled post-restore must fire after a
  // pre-snapshot event at the same instant (FIFO by global seq), exactly
  // as it would have without the checkpoint. A renumbering restore that
  // re-schedules pending events through schedule_at() compresses seq and
  // breaks this ordering.
  std::vector<int> order;
  Simulator s;
  s.schedule_at(2 * sim::kSecond, [&order] { order.push_back(1); });
  const snapshot::Snapshot snap = capture(s);
  restore(s, snap);
  s.schedule_at(2 * sim::kSecond, [&order] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));

  // The kSim step trace carries raw seq numbers: a straight run and a
  // restored run must emit byte-identical step records.
  auto run_traced = [](bool with_snapshot) {
    trace::TracerOptions topts;
    topts.mask = static_cast<std::uint32_t>(trace::Category::kSim);
    trace::Tracer tracer(topts);
    Simulator sim;
    sim.set_tracer(&tracer);
    for (int i = 0; i < 20; ++i) {
      sim.schedule_at((i % 5) * sim::kSecond, [] {});
    }
    sim.run_until(sim::kSecond);
    if (with_snapshot) {
      snapshot::StateWriter w;
      sim.save_state(w);
      const snapshot::Snapshot snap2 = std::move(w).finish();
      snapshot::StateReader r(snap2);
      sim.restore_state(r);
    }
    sim.run();
    std::string out;
    for (const trace::TraceRecord& rec : tracer.snapshot()) {
      out += trace::format_record(rec);
      out += '\n';
    }
    return out;
  };
  EXPECT_EQ(run_traced(false), run_traced(true));
}

TEST(SnapshotSim, RestoreDoesNotConsumeTheSnapshot) {
  Simulator s;
  int total = 0;
  for (int i = 1; i <= 5; ++i) {
    s.schedule_at(i * sim::kSecond, [&total, i] { total += i; });
  }
  const snapshot::Snapshot snap = capture(s);
  for (int branch = 0; branch < 3; ++branch) {
    restore(s, snap);
    total = 0;
    s.run();
    EXPECT_EQ(total, 15) << "branch " << branch;
  }
}

TEST(SnapshotSim, ReaderRejectsCorruptImages) {
  Simulator s;
  s.schedule_at(sim::kSecond, [] {});
  snapshot::Snapshot snap = capture(s);
  snap.image[12] ^= 0xff;
  EXPECT_THROW(snapshot::StateReader r(snap), snapshot::SnapshotError);

  snapshot::Snapshot truncated = capture(s);
  truncated.image.resize(truncated.image.size() / 2);
  EXPECT_THROW(snapshot::StateReader r(truncated), snapshot::SnapshotError);
}

}  // namespace
}  // namespace availsim
