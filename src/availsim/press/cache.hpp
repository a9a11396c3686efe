#pragma once

#include <cstdint>
#include <vector>

#include "availsim/workload/fileset.hpp"

namespace availsim::press {

/// In-memory LRU file cache of one PRESS node. All files are the same size
/// (uniform-27KB workload), so capacity is expressed in whole files.
///
/// File ids are dense (0..FileSet::count-1), so the recency list is
/// threaded through prev/next arrays indexed by FileId rather than kept as
/// a node-per-file list plus a hash index: touch and insert are a few
/// array writes. The arrays grow to the largest FileId seen.
class LruCache {
 public:
  LruCache(std::size_t capacity_bytes, std::size_t file_bytes);

  bool contains(workload::FileId file) const;

  /// Marks `file` most-recently-used; returns whether it was present.
  bool touch(workload::FileId file);

  /// Inserts `file` (MRU). Returns the files evicted to make room (each
  /// eviction must be broadcast to keep peer directories coherent).
  /// Inserting a resident file just touches it.
  std::vector<workload::FileId> insert(workload::FileId file);

  void clear();

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_files_; }

  /// Snapshot of resident files, MRU first (sent to a rejoining peer).
  std::vector<workload::FileId> resident() const;

 private:
  // prev_ value of a slot whose file is not resident.
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  /// Extends the arrays so `file` has a slot.
  void grow_to(workload::FileId file);
  void unlink(std::uint32_t slot);
  void link_after(std::uint32_t slot, std::uint32_t at);

  std::size_t capacity_files_;
  // Circular recency list over slots: slot 0 is the sentinel (next_[0] is
  // the MRU file, prev_[0] the LRU one) and file f lives in slot f + 1.
  std::vector<std::uint32_t> prev_{0};
  std::vector<std::uint32_t> next_{0};
  std::size_t size_ = 0;
};

}  // namespace availsim::press
