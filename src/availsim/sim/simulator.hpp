#pragma once

#include <cstdint>
#include <vector>

#include "availsim/sim/event_fn.hpp"
#include "availsim/sim/ladder_queue.hpp"
#include "availsim/sim/time.hpp"

namespace availsim::trace {
class Tracer;
}

namespace availsim::snapshot {
class StateReader;
class StateWriter;
}  // namespace availsim::snapshot

namespace availsim::sim {

/// Opaque handle to a scheduled event; used only for cancellation.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Single-threaded discrete-event simulator.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO),
/// which makes every run bit-for-bit reproducible for a fixed RNG seed.
/// All of the cluster substrate (network, disks, servers, fault injector,
/// clients) runs on one Simulator instance. Parallel campaigns (see
/// harness/campaign.hpp) give each replica its own private Simulator.
///
/// The pending-event set is a ladder queue (sim/ladder_queue.hpp) —
/// amortised O(1) schedule/pop for the timer-dominated workload — with
/// the exact strict (t, seq) dequeue order of the binary heap it
/// replaced (golden traces are byte-identical; see DESIGN.md §4e).
///
/// Each pending event owns one slot of a slot table: its generation and
/// tombstone flag in `slots_`, its callable in `fns_` at the same index.
/// The queue itself holds only (t, seq, slot), so ordering work never
/// touches a closure.
///
/// Cancellation is O(1) via slot+generation handles: cancel() flips a flag
/// in the event's slot, the queue entry becomes a tombstone that is purged
/// lazily when it reaches the head (destroying its callable then), and the
/// slot is recycled afterwards. Cancelling an already-fired id is an exact
/// no-op (the generation no longer matches), so stale handles neither
/// accumulate state nor ever cancel an unrelated newer event.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (>= now). Returns an id
  /// that can be passed to cancel().
  EventId schedule_at(Time t, EventFn fn);

  /// Schedules `fn` to run `delay` after now. Negative delays are clamped
  /// to zero (fire "immediately", after already-queued events at now()).
  EventId schedule_after(Time delay, EventFn fn);

  /// Cancels a pending event. Cancelling an already-fired or invalid id is
  /// a no-op, so callers may keep stale handles safely.
  void cancel(EventId id);

  /// Runs a single live event. Returns false when no live events remain.
  bool step();

  /// Runs until the queue is empty or stop() is called.
  void run();

  /// Runs all live events with timestamp <= t, then advances now() to t.
  /// Events after t — including any hiding behind cancelled tombstones at
  /// the head of the queue — are left pending.
  void run_until(Time t);

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  /// Number of events executed so far (diagnostics / microbenchmarks).
  std::uint64_t events_processed() const { return processed_; }

  /// Number of live (non-cancelled) events currently pending.
  std::size_t pending() const { return queue_.size() - cancelled_pending_; }

  /// Optional structured-trace sink (not owned). When unset — the default —
  /// every emit point in the substrate reduces to one pointer load and a
  /// branch. See trace/trace.hpp. Attaching re-reads the tracer's category
  /// mask: the per-step kSim gate is cached here, so call set_tracer again
  /// if Tracer::set_mask changes whether kSim is traced.
  trace::Tracer* tracer() const { return tracer_; }
  void set_tracer(trace::Tracer* tracer);

  /// Checkpoints the full event-queue state: clock, seq counter, the slot
  /// table (generations, tombstone flags, free list) and every pending
  /// event with a deep clone of its callable. EventIds handed out before
  /// the snapshot remain valid after restore_state() — nothing is
  /// renumbered — so subsystems may keep cancellation handles across a
  /// checkpoint. Requires every pending callable to be copy-constructible
  /// (EventFn::clonable()).
  void save_state(snapshot::StateWriter& writer) const;

  /// Restores a checkpoint taken by save_state() into this instance. The
  /// snapshot must come from the same process (closures capture pointers
  /// into the owning subsystems); restoring does not consume it, so one
  /// checkpoint can seed many branches. The tracer attachment is wiring
  /// and is left untouched.
  void restore_state(snapshot::StateReader& reader);

 private:
  struct Slot {
    std::uint32_t generation = 1;  // never 0, so an id is never kInvalidEvent
    bool live = false;
    bool cancelled = false;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Pops cancelled tombstones off the head so queue_.head() is live.
  void purge_cancelled_head();

  Time now_ = 0;
  trace::Tracer* tracer_ = nullptr;  // availlint: snap-skip(wiring; the tracer snapshots itself via the testbed)
  // Cached tracer_->wants(kSim): keeps the per-step gate to one flag test.
  bool trace_steps_ = false;  // availlint: snap-skip(debug toggle, not simulated state)
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t cancelled_pending_ = 0;
  bool stopped_ = false;  // availlint: snap-skip(cleared on restore; a restored run is live by definition)
  LadderQueue queue_;
  std::vector<Slot> slots_;
  // Pending callables, indexed like slots_; empty for free slots.
  std::vector<EventFn> fns_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace availsim::sim
