#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace availsim::sim {

/// A table keyed by monotone ids (request, forward, ping, change ids).
/// Entries are added in id order; ids skipped on the way are absent.
/// Erasing trims absent ids off the front, so the front is the oldest entry
/// present: when deadlines grow with the id, the expired entries are a
/// prefix, and a deadline walk starts at front().
///
/// A circular index addressed by the id's low bits spans the ids from the
/// front to the newest, 4 bytes each; a pool holds only the entries present.
/// An entry stuck at the front thus costs 4 bytes per later id, and steady
/// traffic allocates nothing (clear() keeps both arrays). insert() may move
/// every entry, invalidating pointers and references into the ring.
template <typename T>
class IdRing {
 public:
  /// Adds `value` under `id`, which must not be below end_id().
  T& insert(std::uint64_t id, T value) {
    assert(id >= end_);
    if (size_ == 0) front_ = id;  // empty: the span restarts at `id`
    if (id - front_ >= index_.size()) grow(id - front_ + 1);
    if (free_.empty()) {
      free_.push_back(static_cast<std::uint32_t>(pool_.size()));
      pool_.emplace_back();
    }
    const std::uint32_t e = free_.back();
    free_.pop_back();
    pool_[e] = std::move(value);
    index_[place(id)] = e;
    end_ = id + 1;
    ++size_;
    return pool_[e];
  }

  /// The entry under `id`, or nullptr if there is none.
  T* find(std::uint64_t id) {
    if (id < front_ || id >= end_) return nullptr;
    const std::uint32_t e = index_[place(id)];
    return e == kAbsent ? nullptr : &pool_[e];
  }

  /// Removes the entry under `id`; false if there is none.
  bool erase(std::uint64_t id) {
    if (find(id) == nullptr) return false;
    std::uint32_t& e = index_[place(id)];
    pool_[e] = T{};  // releases what the entry holds
    free_.push_back(e);
    e = kAbsent;
    --size_;
    while (front_ < end_ && index_[place(front_)] == kAbsent) ++front_;
    return true;
  }

  /// Drops every entry; later ids must still not be below end_id().
  void clear() {
    while (size_ > 0) erase(front_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Id of the oldest entry present; end_id() when the ring is empty.
  std::uint64_t front_id() const { return front_; }
  /// One past the newest id added.
  std::uint64_t end_id() const { return end_; }
  T& front() {
    assert(!empty());
    return pool_[index_[place(front_)]];
  }

 private:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  std::size_t place(std::uint64_t id) const {
    return static_cast<std::size_t>(id) & (index_.size() - 1);
  }

  /// Re-lays the index out over at least `span` ids. An empty ring has
  /// front_ >= end_, so the old index is read only when it holds entries.
  void grow(std::uint64_t span) {
    const std::vector<std::uint32_t> old = std::move(index_);
    const auto want = std::max<std::size_t>(16, static_cast<std::size_t>(span));
    index_.assign(std::bit_ceil(want), kAbsent);
    for (std::uint64_t id = front_; id < end_; ++id) {
      index_[place(id)] = old[static_cast<std::size_t>(id) & (old.size() - 1)];
    }
  }

  std::vector<std::uint32_t> index_;  // power-of-two size (or empty)
  std::vector<T> pool_;
  std::vector<std::uint32_t> free_;  // places in pool_ no entry holds
  std::uint64_t front_ = 0;
  std::uint64_t end_ = 0;
  std::size_t size_ = 0;
};

}  // namespace availsim::sim
