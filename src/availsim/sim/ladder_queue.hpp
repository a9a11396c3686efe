#pragma once

#include <cstdint>
#include <vector>

#include "availsim/sim/time.hpp"

namespace availsim::sim {

/// One scheduled event as stored by the queue. `seq` is the global
/// schedule-order counter: the queue's total order is (t, seq), which
/// encodes FIFO tie-break at equal timestamps. The callable is not here:
/// it sits in the Simulator's slot table at index `slot`, so the ladder
/// sorts and buckets plain 24-byte entries and never moves a closure.
struct QueuedEvent {
  Time t = 0;
  std::uint64_t seq = 0;   // global schedule order; FIFO tie-break at same t
  std::uint32_t slot = 0;  // slot-table index; generation and callable live
                           // in the Simulator
};

/// Ladder-queue priority queue specialised for the simulator's workload:
/// a huge population of near-future timers (heartbeats, qmon probes, FE
/// pings, request timeouts) with amortised O(1) push/pop, replacing the
/// O(log n) binary heap.
///
/// Structure (earliest to latest):
///
///   bottom_  sorted vector; every stored event with t < bottom_limit_
///            lives here. Events are only ever *fired from the bottom*,
///            so the dequeue order is exactly ascending (t, seq).
///   rungs_   a ladder of bucket arrays. rungs_[0] is the widest (one
///            epoch of the far-future pool); each deeper rung subdivides
///            one bucket of its parent. Buckets are unsorted.
///   top_     unsorted far-future pool beyond the deepest coverage
///            boundary, with min/max timestamp tracked for re-bucketing.
///
/// Refill (when the bottom drains): the deepest rung's next non-empty
/// bucket either *materialises* — its events are sorted by (t, seq) into
/// the bottom and bottom_limit_ advances to the bucket's right edge — or,
/// if it is still large, *spills* into a new narrower rung. When the whole
/// ladder is empty the top pool starts a new epoch as a fresh rung 0.
///
/// Ordering-equivalence argument (vs. the reference heap):
///  1. Every event is routed by timestamp: below bottom_limit_ it is
///     insertion-sorted into the bottom at its exact (t, seq) position
///     (always at or after the current head, since t >= now); otherwise it
///     lands in the deepest structure whose coverage boundary (`limit`)
///     exceeds t, i.e. always *later* structures hold *later* events.
///  2. A bucket is materialised only once the bottom has fully drained,
///     and materialisation sorts by (t, seq) — so any order lost inside a
///     bucket (including "late" events clamped up into a rung's current
///     bucket, see push()) is restored before anything fires.
///  3. No structure outside the bottom ever holds an event with
///     t < bottom_limit_, and bottom_limit_ never moves below the head's
///     timestamp — so nothing can be scheduled "behind" an event that
///     already fired out of order. (bottom_limit_ normally only grows;
///     the one place it retreats is the bottom-overflow spill, which
///     first moves every bottom event at or beyond the new limit into
///     the new deepest rung, keeping the invariant exact.)
/// Together these give the exact total (t, seq) dequeue order of a binary
/// heap — byte-identical traces, not merely equivalent availability.
class LadderQueue {
 public:
  LadderQueue() = default;
  LadderQueue(const LadderQueue&) = delete;
  LadderQueue& operator=(const LadderQueue&) = delete;

  void push(const QueuedEvent& ev);

  bool empty() const { return size_ == 0; }
  /// Number of stored events, cancelled tombstones included (the caller
  /// tracks live counts; see Simulator::pending()).
  std::size_t size() const { return size_; }

  /// Earliest event in (t, seq) order, or nullptr when empty. May
  /// materialise ladder state; any push/pop invalidates the pointer.
  QueuedEvent* head();

  /// Removes and returns the head. Requires a prior non-null head().
  QueuedEvent pop_head();

  /// Calls `fn(const QueuedEvent&)` on every stored event (tombstones
  /// included), in unspecified internal order — snapshot capture sorts by
  /// (t, seq) itself to keep images byte-stable. Template member because
  /// sim/ bans std::function (see availlint.rules forbid-function).
  template <typename F>
  void visit(F&& fn) const {
    for (std::size_t i = bottom_pos_; i < bottom_.size(); ++i) {
      fn(bottom_[i]);
    }
    for (const Rung& rung : rungs_) {
      for (std::size_t b = rung.cur; b < rung.buckets.size(); ++b) {
        for (const QueuedEvent& ev : rung.buckets[b]) fn(ev);
      }
    }
    for (const QueuedEvent& ev : top_) fn(ev);
  }

  /// Drops every stored event and resets the ladder to its pristine
  /// post-construction state (snapshot restore rebuilds by re-pushing;
  /// the dequeue order is exactly (t, seq) regardless of how pushes were
  /// interleaved, so a rebuilt ladder fires identically). The recycled
  /// bucket pool is kept.
  void clear();

 private:
  struct Rung {
    Time start = 0;  // left edge of bucket 0
    Time width = 1;  // bucket width, always >= 1 ns
    Time limit = 0;  // true coverage boundary: this rung holds t < limit
    std::size_t cur = 0;    // buckets below cur are dismantled
    std::size_t count = 0;  // events currently stored in this rung
    std::vector<std::vector<QueuedEvent>> buckets;
  };

  /// Refills the bottom from the ladder/top. False iff the queue is empty.
  bool refill_bottom();
  /// Bottom-overflow guard: moves the (t, seq)-largest tail of the bottom
  /// into a new deepest rung and pulls bottom_limit_ back to the cut
  /// point. Without this, one sparse far-spanning bucket materialisation
  /// leaves bottom_limit_ far ahead and every subsequent near-future push
  /// pays an O(bottom) insertion into an unbounded bottom.
  void spill_bottom_tail();
  /// Builds a new deepest rung spanning [start, limit) from `events`.
  void make_rung(std::vector<QueuedEvent>&& events, Time start, Time limit);
  void recycle(std::vector<std::vector<QueuedEvent>>&& buckets);
  std::vector<QueuedEvent> take_pool_bucket();

  std::vector<QueuedEvent> bottom_;
  std::size_t bottom_pos_ = 0;
  Time bottom_limit_ = 0;  // every stored event with t < this is in bottom_

  std::vector<Rung> rungs_;  // [0] widest epoch rung; back() is deepest

  std::vector<QueuedEvent> top_;
  Time top_min_ = 0;
  Time top_max_ = 0;

  std::size_t size_ = 0;
  // Recycled bucket storage: rung churn reuses vectors instead of
  // re-allocating them every epoch.
  std::vector<std::vector<QueuedEvent>> bucket_pool_;
};

}  // namespace availsim::sim
