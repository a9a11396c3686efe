#include "availsim/sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "availsim/trace/trace.hpp"

namespace availsim::sim {

namespace {

constexpr std::size_t kArity = 4;

bool before(const QueuedEvent& a, const QueuedEvent& b) {
  return a.t != b.t ? a.t < b.t : a.seq < b.seq;
}

}  // namespace

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  generations_.push_back(1);
  pos_.push_back(0);
  fns_.emplace_back();
  return static_cast<std::uint32_t>(generations_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  std::uint32_t& generation = generations_[slot];
  if (++generation == 0) generation = 1;  // keep ids != kInvalidEvent
  free_slots_.push_back(slot);
}

void Simulator::sift_up(std::size_t i, QueuedEvent ev) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(ev, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, ev);
}

void Simulator::sift_down(std::size_t i, QueuedEvent ev) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t min = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[min])) min = c;
    }
    if (!before(heap_[min], ev)) break;
    place(i, heap_[min]);
    i = min;
  }
  place(i, ev);
}

void Simulator::push(QueuedEvent ev) {
  heap_.emplace_back();
  sift_up(heap_.size() - 1, ev);
}

void Simulator::remove_at(std::size_t i) {
  const QueuedEvent last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // the removed entry was the last one
  // The last entry may belong to another subtree: it sifts up when it is
  // earlier than the hole's parent, down otherwise.
  if (i > 0 && before(last, heap_[(i - 1) / kArity])) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

EventId Simulator::schedule_at(Time t, EventFn fn) {
  if (t < now_) t = now_;
  const std::uint32_t slot = acquire_slot();
  const EventId id = (static_cast<EventId>(generations_[slot]) << 32) | slot;
  fns_[slot] = std::move(fn);
  push(QueuedEvent{t, next_seq_++, slot});
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
  // Releasing a slot bumps its generation, so fired, cancelled and running
  // ids all miss. The heap check is a guard on the slot table: should a
  // matching generation ever name a slot that is not pending, cancel stays
  // a no-op instead of removing whichever event sits at that index.
  if (slot >= generations_.size() || generations_[slot] != generation) return;
  const std::uint32_t at = pos_[slot];
  if (at >= heap_.size() || heap_[at].slot != slot) return;
  remove_at(at);
  fns_[slot] = EventFn();  // free the capture now
  release_slot(slot);
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  const QueuedEvent ev = heap_.front();
  remove_at(0);
  // The callable is moved out before its slot is released: `fn` may
  // schedule new events, and the first of them reuses this very slot.
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

void Simulator::run_until(Time t) {
  stopped_ = false;
  while (!stopped_ && !heap_.empty() && heap_.front().t <= t) step();
  if (now_ < t) now_ = t;
}

}  // namespace availsim::sim
