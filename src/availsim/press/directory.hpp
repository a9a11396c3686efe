#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "availsim/net/packet.hpp"
#include "availsim/sim/node_set.hpp"
#include "availsim/workload/fileset.hpp"

namespace availsim::press {

/// One node's view of which files its peers cache (locality information)
/// and how loaded each peer is (load information). Maintained from
/// CacheUpdate broadcasts and piggybacked load counters; therefore
/// *eventually consistent* — staleness during faults is part of what the
/// paper measures.
class Directory {
 public:
  /// Throws std::length_error when `node` exceeds 32,766, the largest
  /// NodeId a record's inline replica field holds.
  void node_caches(net::NodeId node, workload::FileId file);
  void node_evicts(net::NodeId node, workload::FileId file);
  void set_load(net::NodeId node, int load);
  int load(net::NodeId node) const;

  /// Drops everything known about `node` (it left the cooperation set).
  void remove_node(net::NodeId node);

  /// Bulk-installs a peer's cache snapshot (rejoin protocol).
  void install_snapshot(net::NodeId node,
                        const std::vector<workload::FileId>& files);

  /// The least-loaded member of `coop` believed to cache `file`; nullopt
  /// when no cooperating peer caches it.
  std::optional<net::NodeId> best_service_node(
      workload::FileId file, const sim::NodeSet& coop) const;

  bool node_caches_file(net::NodeId node, workload::FileId file) const;
  std::size_t files_known_for(net::NodeId node) const;

 private:
  // A file's replicas, in announcement order. Tag bit clear: up to two
  // replicas inline, each 15-bit field holding NodeId + 1 (0: none; the
  // first field fills before the second). Tag bit set: three or more,
  // listed in entries_ from the index in the low 31 bits.
  using Record = std::uint32_t;
  static constexpr Record kPooled = Record{1} << 31;
  static constexpr std::uint32_t kNone = UINT32_MAX;

  // One pooled replica: a link in its file's singly linked list.
  struct Entry {
    net::NodeId node;
    std::uint32_t next;
  };

  /// Calls `visit(node)` on each of `file`'s replicas in list order.
  template <typename Visit>
  void for_each_replica(workload::FileId file, Visit visit) const;
  /// Takes a pool entry {node, next} (a freed one first); returns its index.
  std::uint32_t link(net::NodeId node, std::uint32_t next);
  void release(std::uint32_t e);
  /// Drops `node` from `r`'s replicas, if it is listed; a pooled list left
  /// with two replicas moves back inline.
  void unlink(Record& r, net::NodeId node);

  // FileId -> the file's record (0: no replica known). Indexed directly by
  // the dense file id and grown to the largest id seen. The order kept
  // breaks best_service_node's load ties.
  std::vector<Record> records_;
  // The pool holding each list of three or more replicas; freed entries
  // chain through `next` from free_, so steady insert/evict traffic
  // allocates nothing.
  std::vector<Entry> entries_;
  std::uint32_t free_ = kNone;
  // NodeId -> last piggybacked load, grown to the largest id seen; a node
  // never heard from reads 0.
  std::vector<int> loads_;
};

}  // namespace availsim::press
