#include "availsim/press/cache.hpp"

#include <algorithm>
#include <cassert>

namespace availsim::press {

namespace {
std::uint32_t slot_of(workload::FileId file) {
  return static_cast<std::uint32_t>(file) + 1;
}
workload::FileId file_of(std::uint32_t slot) {
  return static_cast<workload::FileId>(slot - 1);
}
}  // namespace

LruCache::LruCache(std::size_t capacity_bytes, std::size_t file_bytes)
    : capacity_files_(std::max<std::size_t>(1, capacity_bytes / file_bytes)) {}

bool LruCache::contains(workload::FileId file) const {
  const std::uint32_t s = slot_of(file);
  return s < prev_.size() && prev_[s] != kAbsent;
}

void LruCache::grow_to(workload::FileId file) {
  assert(file >= 0);
  const std::size_t need = std::size_t{slot_of(file)} + 1;
  if (need <= prev_.size()) return;
  prev_.resize(need, kAbsent);
  next_.resize(need, kAbsent);
}

void LruCache::unlink(std::uint32_t slot) {
  next_[prev_[slot]] = next_[slot];
  prev_[next_[slot]] = prev_[slot];
}

void LruCache::link_after(std::uint32_t slot, std::uint32_t at) {
  prev_[slot] = at;
  next_[slot] = next_[at];
  prev_[next_[at]] = slot;
  next_[at] = slot;
}

bool LruCache::touch(workload::FileId file) {
  if (!contains(file)) return false;
  unlink(slot_of(file));
  link_after(slot_of(file), 0);
  return true;
}

std::vector<workload::FileId> LruCache::insert(workload::FileId file) {
  std::vector<workload::FileId> evicted;
  if (touch(file)) return evicted;
  grow_to(file);
  link_after(slot_of(file), 0);
  ++size_;
  while (size_ > capacity_files_) {
    const std::uint32_t lru = prev_[0];
    unlink(lru);
    prev_[lru] = kAbsent;
    --size_;
    evicted.push_back(file_of(lru));
  }
  return evicted;
}

void LruCache::clear() {
  for (std::uint32_t s = next_[0]; s != 0; s = next_[s]) prev_[s] = kAbsent;
  prev_[0] = next_[0] = 0;
  size_ = 0;
}

std::vector<workload::FileId> LruCache::resident() const {
  std::vector<workload::FileId> out;
  out.reserve(size_);
  for (std::uint32_t s = next_[0]; s != 0; s = next_[s]) {
    out.push_back(file_of(s));
  }
  return out;
}

}  // namespace availsim::press
