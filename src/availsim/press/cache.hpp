#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "availsim/workload/fileset.hpp"

namespace availsim::press {

/// In-memory LRU file cache of one PRESS node. All files are the same size
/// (uniform-27KB workload), so capacity is expressed in whole files.
///
/// The recency list is threaded through cache slots, one per resident
/// file, with 16-bit links; a FileId-indexed slot table finds a file's
/// slot. Touch and insert are a few array writes, and the state is sized
/// by what the node holds, not by the catalogue.
class LruCache {
 public:
  /// Throws std::length_error when the capacity exceeds 65,535 files.
  LruCache(std::size_t capacity_bytes, std::size_t file_bytes);

  bool contains(workload::FileId file) const;

  /// Marks `file` most-recently-used; returns whether it was present.
  bool touch(workload::FileId file);

  /// Inserts `file` (MRU). Returns the file evicted to make room, if any
  /// (each eviction must be broadcast to keep peer directories coherent).
  /// Inserting a resident file just touches it.
  std::optional<workload::FileId> insert(workload::FileId file);

  void clear();

  std::size_t size() const { return entries_.size() - 1; }
  std::size_t capacity() const { return capacity_files_; }

  /// Snapshot of resident files, MRU first (sent to a rejoining peer).
  std::vector<workload::FileId> resident() const;

 private:
  using Slot = std::uint16_t;

  // One cache slot: its file and its links in the circular recency list.
  struct Entry {
    Slot prev;
    Slot next;
    workload::FileId file;
  };

  /// `file`'s slot, or 0 when it is not resident (any id out of range).
  Slot slot_of(workload::FileId file) const;
  void unlink(Slot slot);
  void link_mru(Slot slot);

  std::size_t capacity_files_;
  // Slot 0 is the sentinel (its next is the MRU slot, its prev the LRU
  // one) and resident files fill slots 1..size(): a file only leaves on
  // eviction, which hands its slot to the incoming file, or on clear().
  // Reserved to capacity + 1 at construction.
  std::vector<Entry> entries_;
  // FileId -> slot, 0 = not resident; grows to the largest FileId seen.
  std::vector<Slot> slot_of_;
};

}  // namespace availsim::press
