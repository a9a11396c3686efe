#include "availsim/sim/ladder_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace availsim::sim {

namespace {

/// A bucket at or below this size is sorted straight into the bottom
/// instead of spawning a child rung. Keeps the bottom — where pushes pay
/// an O(bottom) insertion — small.
constexpr std::size_t kSortThreshold = 64;

/// Spill depth guard: beyond this many rungs a bucket is sorted into the
/// bottom regardless of size (pathological same-instant floods).
constexpr std::size_t kMaxRungs = 10;

/// Cap on buckets per rung, bounding memory for huge epochs.
constexpr std::size_t kMaxBucketsPerRung = std::size_t{1} << 16;

/// Live bottom size beyond which push() spills the bottom's tail back
/// into the ladder (see spill_bottom_tail). Must be > kSortThreshold.
constexpr std::size_t kBottomOverflow = 4 * kSortThreshold;

bool event_before(const QueuedEvent& a, const QueuedEvent& b) {
  if (a.t != b.t) return a.t < b.t;
  return a.seq < b.seq;
}

}  // namespace

void LadderQueue::push(const QueuedEvent& ev) {
  ++size_;
  if (ev.t < bottom_limit_) {
    // The bottom covers this instant: insertion-sort at the exact (t, seq)
    // position. Only positions at or after the head are candidates (every
    // event before bottom_pos_ already fired, and ev.t >= now).
    auto it = std::upper_bound(
        bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_pos_),
        bottom_.end(), ev, event_before);
    bottom_.insert(it, ev);
    if (bottom_.size() - bottom_pos_ > kBottomOverflow &&
        rungs_.size() < kMaxRungs) {
      spill_bottom_tail();
    }
    return;
  }
  // Deepest rung covering this timestamp wins; rung limits are nested
  // (back() smallest), so the first match is the right one.
  for (auto r = rungs_.rbegin(); r != rungs_.rend(); ++r) {
    if (ev.t >= r->limit) continue;
    auto idx = static_cast<std::size_t>((ev.t - r->start) / r->width);
    // A "late" event — its natural bucket was already dismantled (its
    // child rung emptied and was dropped) — rides in the current bucket;
    // materialisation sorts it back into exact order before it can fire.
    if (idx < r->cur) idx = r->cur;
    if (idx >= r->buckets.size()) idx = r->buckets.size() - 1;
    r->buckets[idx].push_back(ev);
    ++r->count;
    return;
  }
  // Far future: unsorted top pool, re-bucketed at the next epoch.
  if (top_.empty()) {
    top_min_ = top_max_ = ev.t;
  } else {
    top_min_ = std::min(top_min_, ev.t);
    top_max_ = std::max(top_max_, ev.t);
  }
  top_.push_back(ev);
}

QueuedEvent* LadderQueue::head() {
  if (bottom_pos_ < bottom_.size()) return &bottom_[bottom_pos_];
  if (!refill_bottom()) return nullptr;
  return &bottom_[bottom_pos_];
}

QueuedEvent LadderQueue::pop_head() {
  assert(bottom_pos_ < bottom_.size());
  --size_;
  return bottom_[bottom_pos_++];
}

void LadderQueue::clear() {
  bottom_.clear();
  bottom_pos_ = 0;
  bottom_limit_ = 0;
  for (Rung& r : rungs_) recycle(std::move(r.buckets));
  rungs_.clear();
  top_.clear();
  top_min_ = 0;
  top_max_ = 0;
  size_ = 0;
}

void LadderQueue::spill_bottom_tail() {
  // Keep the head plus a sort-threshold's worth of live events; everything
  // past that moves into a new deepest rung covering [cut, bottom_limit_).
  // The bottom is sorted, so the tail is exactly the (t, seq)-largest
  // events: same-timestamp events with smaller seq stay in the bottom and
  // still fire first, and rung materialisation re-sorts by (t, seq), so
  // the heap-exact dequeue order is preserved.
  const std::size_t keep = bottom_pos_ + kSortThreshold;
  assert(keep < bottom_.size());
  const Time cut = bottom_[keep].t;
  std::vector<QueuedEvent> tail = take_pool_bucket();
  tail.insert(tail.end(),
              bottom_.begin() + static_cast<std::ptrdiff_t>(keep),
              bottom_.end());
  bottom_.resize(keep);
  // cut < bottom_limit_ because every bottom event has t < bottom_limit_,
  // so the new rung has a non-empty span and nests below the old deepest.
  make_rung(std::move(tail), cut, bottom_limit_);
  bottom_limit_ = cut;
}

bool LadderQueue::refill_bottom() {
  bottom_.clear();
  bottom_pos_ = 0;
  for (;;) {
    if (!rungs_.empty()) {
      Rung& r = rungs_.back();
      if (r.count == 0) {
        recycle(std::move(r.buckets));
        rungs_.pop_back();
        continue;
      }
      while (r.buckets[r.cur].empty()) ++r.cur;
      const Time b_start = r.start + static_cast<Time>(r.cur) * r.width;
      Time b_end = b_start + r.width;
      if (b_end > r.limit) b_end = r.limit;
      std::vector<QueuedEvent> bucket = std::move(r.buckets[r.cur]);
      r.count -= bucket.size();
      ++r.cur;
      if (bucket.size() <= kSortThreshold || r.width <= 1 ||
          rungs_.size() >= kMaxRungs) {
        // Materialise: this bucket becomes the sorted bottom and its right
        // edge becomes the new bottom coverage boundary.
        bottom_ = std::move(bucket);
        std::sort(bottom_.begin(), bottom_.end(), event_before);
        bottom_limit_ = b_end;
        return true;
      }
      // Spill: still too coarse — subdivide into a narrower child rung.
      make_rung(std::move(bucket), b_start, b_end);
      continue;
    }
    if (top_.empty()) return false;
    // New epoch: the far-future pool becomes rung 0 (or, when small,
    // the bottom directly).
    std::vector<QueuedEvent> pool = std::move(top_);
    top_ = take_pool_bucket();
    if (pool.size() <= kSortThreshold || top_min_ == top_max_) {
      bottom_ = std::move(pool);
      std::sort(bottom_.begin(), bottom_.end(), event_before);
      bottom_limit_ = top_max_ + 1;
      return true;
    }
    make_rung(std::move(pool), top_min_, top_max_ + 1);
  }
}

void LadderQueue::make_rung(std::vector<QueuedEvent>&& events, Time start,
                            Time limit) {
  assert(limit > start);
  Rung r;
  r.start = start;
  r.limit = limit;
  const Time span = limit - start;
  const std::size_t target = std::clamp<std::size_t>(
      events.size(), std::size_t{2}, kMaxBucketsPerRung);
  r.width = (span + static_cast<Time>(target) - 1) / static_cast<Time>(target);
  if (r.width < 1) r.width = 1;
  const auto buckets =
      static_cast<std::size_t>((span + r.width - 1) / r.width);
  r.buckets.reserve(buckets);
  while (r.buckets.size() < buckets) r.buckets.push_back(take_pool_bucket());
  for (const QueuedEvent& ev : events) {
    const auto idx = static_cast<std::size_t>((ev.t - start) / r.width);
    assert(idx < r.buckets.size());
    r.buckets[idx].push_back(ev);
  }
  r.count = events.size();
  events.clear();
  if (bucket_pool_.size() < kMaxBucketsPerRung) {
    bucket_pool_.push_back(std::move(events));
  }
  rungs_.push_back(std::move(r));
}

void LadderQueue::recycle(std::vector<std::vector<QueuedEvent>>&& buckets) {
  for (std::vector<QueuedEvent>& b : buckets) {
    if (bucket_pool_.size() >= kMaxBucketsPerRung) break;
    b.clear();
    bucket_pool_.push_back(std::move(b));
  }
  buckets.clear();
}

std::vector<QueuedEvent> LadderQueue::take_pool_bucket() {
  if (bucket_pool_.empty()) return {};
  std::vector<QueuedEvent> b = std::move(bucket_pool_.back());
  bucket_pool_.pop_back();
  return b;
}

}  // namespace availsim::sim
