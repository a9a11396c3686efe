#pragma once

#include <cstdint>
#include <vector>

#include "availsim/sim/event_fn.hpp"
#include "availsim/sim/time.hpp"

namespace availsim::trace {
class Tracer;
}

namespace availsim::sim {

/// Opaque handle to a scheduled event; used only for cancellation.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// One pending event as stored in the heap. `seq` is the global
/// schedule-order counter: the heap's total order is (t, seq), which
/// encodes FIFO tie-break at equal timestamps. The callable is not here:
/// it sits in the Simulator's slot table at index `slot`, so sifting moves
/// plain 24-byte entries and never a closure.
struct QueuedEvent {
  Time t = 0;
  std::uint64_t seq = 0;   // global schedule order; FIFO tie-break at same t
  std::uint32_t slot = 0;  // slot-table index; generation and callable live
                           // in the Simulator
};

/// Single-threaded discrete-event simulator.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO),
/// which makes every run bit-for-bit reproducible for a fixed RNG seed.
/// All of the cluster substrate (network, disks, servers, fault injector,
/// clients) runs on one Simulator instance. Parallel campaigns (see
/// harness/campaign.hpp) give each replica its own private Simulator.
///
/// The pending-event set is an indexed 4-ary min-heap of live events keyed
/// by (t, seq) (DESIGN.md §4e). Each pending event owns one slot of a slot
/// table: its generation in `generations_`, its heap index in `pos_` and
/// its callable in `fns_`, all at the same index. The heap holds only
/// (t, seq, slot), so sifting never touches a closure.
///
/// Cancellation removes the event at once, in O(log n): the slot's heap
/// index locates the entry, its callable is destroyed and the slot is
/// recycled with a bumped generation. An EventId is slot plus generation,
/// so cancelling an already-fired or already-cancelled id is an exact
/// no-op and a stale handle never cancels an unrelated newer event.
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

  /// Cancels a pending event, destroying its callable. Cancelling an
  /// already-fired or invalid id — including a running event's own id —
  /// is a no-op, so callers may keep stale handles safely.
  void cancel(EventId id);

  /// Runs the earliest pending event. Returns false when none remain.
  bool step();

  /// Runs until the queue is empty or stop() is called.
  void run();

  /// Runs all pending events with timestamp <= t, then advances now() to
  /// t. Later events are left pending.
  void run_until(Time t);

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  /// Number of events executed so far (diagnostics / microbenchmarks).
  std::uint64_t events_processed() const { return processed_; }

  /// Number of events currently pending.
  std::size_t pending() const { return heap_.size(); }

  /// Optional structured-trace sink (not owned). When unset — the default —
  /// every emit point in the substrate reduces to one pointer load and a
  /// branch. See trace/trace.hpp. Attaching re-reads the tracer's category
  /// mask: the per-step kSim gate is cached here, so call set_tracer again
  /// if Tracer::set_mask changes whether kSim is traced.
  trace::Tracer* tracer() const { return tracer_; }
  void set_tracer(trace::Tracer* tracer);

 private:
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void push(QueuedEvent ev);
  /// Removes the heap entry at index `i`, refilling the hole with the last
  /// entry sifted whichever way restores the heap order.
  void remove_at(std::size_t i);
  /// Moves `ev` from hole `i` towards the root / the leaves until it sits
  /// in heap order, keeping pos_ in step with every entry it passes.
  void sift_up(std::size_t i, QueuedEvent ev);
  void sift_down(std::size_t i, QueuedEvent ev);
  void place(std::size_t i, QueuedEvent ev) {
    heap_[i] = ev;
    pos_[ev.slot] = static_cast<std::uint32_t>(i);
  }

  Time now_ = 0;
  trace::Tracer* tracer_ = nullptr;
  // Cached tracer_->wants(kSim): keeps the per-step gate to one flag test.
  bool trace_steps_ = false;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
  std::vector<QueuedEvent> heap_;
  // Slot table, one entry per slot: generation (never 0, so an id is never
  // kInvalidEvent), heap index while pending, and the pending callable
  // (empty for free slots).
  std::vector<std::uint32_t> generations_;
  std::vector<std::uint32_t> pos_;
  std::vector<EventFn> fns_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace availsim::sim
