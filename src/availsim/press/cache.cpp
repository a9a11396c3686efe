#include "availsim/press/cache.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace availsim::press {

namespace {
std::size_t idx(workload::FileId file) { return static_cast<std::size_t>(file); }
}  // namespace

LruCache::LruCache(std::size_t capacity_bytes, std::size_t file_bytes)
    : capacity_files_(std::max<std::size_t>(1, capacity_bytes / file_bytes)) {
  if (capacity_files_ > std::numeric_limits<Slot>::max()) {
    throw std::length_error("LruCache: capacity over 65,535 files");
  }
  entries_.reserve(capacity_files_ + 1);
  entries_.push_back(Entry{0, 0, -1});
}

LruCache::Slot LruCache::slot_of(workload::FileId file) const {
  return file >= 0 && idx(file) < slot_of_.size() ? slot_of_[idx(file)] : 0;
}

bool LruCache::contains(workload::FileId file) const {
  return slot_of(file) != 0;
}

void LruCache::unlink(Slot slot) {
  const Entry& e = entries_[slot];
  entries_[e.prev].next = e.next;
  entries_[e.next].prev = e.prev;
}

void LruCache::link_mru(Slot slot) {
  Entry& e = entries_[slot];
  e.prev = 0;
  e.next = entries_[0].next;
  entries_[e.next].prev = slot;
  entries_[0].next = slot;
}

bool LruCache::touch(workload::FileId file) {
  const Slot s = slot_of(file);
  if (s == 0) return false;
  unlink(s);
  link_mru(s);
  return true;
}

std::optional<workload::FileId> LruCache::insert(workload::FileId file) {
  if (touch(file)) return std::nullopt;
  assert(file >= 0);
  if (idx(file) >= slot_of_.size()) slot_of_.resize(idx(file) + 1, 0);
  std::optional<workload::FileId> evicted;
  Slot s;
  if (size() < capacity_files_) {
    s = static_cast<Slot>(entries_.size());
    entries_.push_back(Entry{0, 0, file});
  } else {
    // Full: the LRU file leaves and the new one takes its slot at the MRU
    // end. Linking first and evicting after would drop the same file and
    // leave the same order, because a capacity of at least one keeps the
    // new file off the LRU end.
    s = entries_[0].prev;
    unlink(s);
    evicted = entries_[s].file;
    slot_of_[idx(*evicted)] = 0;
    entries_[s].file = file;
  }
  slot_of_[idx(file)] = s;
  link_mru(s);
  return evicted;
}

void LruCache::clear() {
  for (std::size_t s = 1; s < entries_.size(); ++s) {
    slot_of_[idx(entries_[s].file)] = 0;
  }
  entries_.resize(1);
  entries_[0].prev = entries_[0].next = 0;
}

std::vector<workload::FileId> LruCache::resident() const {
  std::vector<workload::FileId> out;
  out.reserve(size());
  for (Slot s = entries_[0].next; s != 0; s = entries_[s].next) {
    out.push_back(entries_[s].file);
  }
  return out;
}

}  // namespace availsim::press
