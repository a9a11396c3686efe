#include "availsim/sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "availsim/snapshot/state_io.hpp"
#include "availsim/trace/trace.hpp"

namespace availsim::sim {

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].live = true;
    return slot;
  }
  slots_.push_back(Slot{1, true, false});
  fns_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  s.cancelled = false;
  if (++s.generation == 0) s.generation = 1;  // keep ids != kInvalidEvent
  free_slots_.push_back(slot);
}

EventId Simulator::schedule_at(Time t, EventFn fn) {
  if (t < now_) t = now_;
  const std::uint32_t slot = acquire_slot();
  const EventId id =
      (static_cast<EventId>(slots_[slot].generation) << 32) | slot;
  fns_[slot] = std::move(fn);
  queue_.push(QueuedEvent{t, next_seq_++, slot});
  return id;
}

EventId Simulator::schedule_after(Time delay, EventFn fn) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (!s.live || s.generation != generation || s.cancelled) return;
  s.cancelled = true;
  ++cancelled_pending_;
}

void Simulator::purge_cancelled_head() {
  while (const QueuedEvent* head = queue_.head()) {
    const std::uint32_t slot = head->slot;
    if (!slots_[slot].cancelled) break;
    queue_.pop_head();
    fns_[slot] = EventFn();  // free the tombstone's capture now
    release_slot(slot);
    --cancelled_pending_;
  }
}

bool Simulator::step() {
  purge_cancelled_head();
  if (queue_.empty()) return false;
  // The callable is moved out before its slot is released: `fn` may
  // schedule new events, and the first of them reuses this very slot.
  const QueuedEvent ev = queue_.pop_head();
  EventFn fn = std::move(fns_[ev.slot]);
  release_slot(ev.slot);
  assert(ev.t >= now_);
  now_ = ev.t;
  ++processed_;
  if (trace_steps_) [[unlikely]] {
    tracer_->emit(now_, trace::Category::kSim, trace::Kind::kSimStep, -1,
                  static_cast<std::int64_t>(ev.seq), 0, 0);
  }
  fn();
  return true;
}

void Simulator::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  trace_steps_ = tracer_ != nullptr && tracer_->wants(trace::Category::kSim);
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulator::save_state(snapshot::StateWriter& w) const {
  w.section("sim");
  w.i64(now_);
  w.u64(next_seq_);
  w.u64(processed_);
  w.u64(cancelled_pending_);
  // Slot table, verbatim: generations and tombstone flags must survive so
  // EventIds issued before the snapshot stay valid (and stale ids stay
  // stale) after restore — no renumbering.
  w.u64(slots_.size());
  for (const Slot& s : slots_) {
    w.u32(s.generation);
    w.boolean(s.live);
    w.boolean(s.cancelled);
  }
  w.u64(free_slots_.size());
  for (std::uint32_t s : free_slots_) w.u32(s);
  // Pending events, tombstones included, in canonical (t, seq) order so
  // the image is byte-stable regardless of the ladder's internal layout.
  std::vector<QueuedEvent> entries;
  entries.reserve(queue_.size());
  queue_.visit([&entries](const QueuedEvent& ev) { entries.push_back(ev); });
  std::sort(entries.begin(), entries.end(),
            [](const QueuedEvent& a, const QueuedEvent& b) {
              return a.t != b.t ? a.t < b.t : a.seq < b.seq;
            });
  w.u64(entries.size());
  for (const QueuedEvent& e : entries) {
    const EventFn& fn = fns_[e.slot];
    assert(fn.clonable() &&
           "pending event captures move-only state; snapshot requires "
           "by-value (copyable) captures");
    w.i64(e.t);
    w.u64(e.seq);
    w.u32(e.slot);
    // shared_ptr wrapper: std::any requires copy-constructible contents,
    // and sharing the clone lets one snapshot be restored many times.
    w.box(std::make_shared<const EventFn>(fn.clone()));
  }
}

void Simulator::restore_state(snapshot::StateReader& r) {
  r.section("sim");
  now_ = r.i64();
  next_seq_ = r.u64();
  processed_ = r.u64();
  cancelled_pending_ = r.u64();
  slots_.clear();
  const std::uint64_t slot_count = r.u64();
  slots_.reserve(slot_count);
  for (std::uint64_t i = 0; i < slot_count; ++i) {
    Slot s;
    s.generation = r.u32();
    s.live = r.boolean();
    s.cancelled = r.boolean();
    slots_.push_back(s);
  }
  free_slots_.clear();
  const std::uint64_t free_count = r.u64();
  free_slots_.reserve(free_count);
  for (std::uint64_t i = 0; i < free_count; ++i) free_slots_.push_back(r.u32());
  queue_.clear();
  fns_.clear();
  fns_.resize(slot_count);
  const std::uint64_t event_count = r.u64();
  for (std::uint64_t i = 0; i < event_count; ++i) {
    QueuedEvent ev;
    ev.t = r.i64();
    ev.seq = r.u64();
    ev.slot = r.u32();
    // Clone out of the snapshot (never move): the same checkpoint may be
    // restored again for the next splitting branch.
    fns_[ev.slot] = r.unbox<std::shared_ptr<const EventFn>>()->clone();
    queue_.push(ev);
  }
  stopped_ = false;
}

void Simulator::run_until(Time t) {
  stopped_ = false;
  while (!stopped_) {
    // Purge before the time check: a cancelled tombstone at the head must
    // not let step() run a later-than-t event (or advance the clock).
    purge_cancelled_head();
    const QueuedEvent* head = queue_.head();
    if (head == nullptr || head->t > t) break;
    step();
  }
  if (now_ < t) now_ = t;
}

}  // namespace availsim::sim
