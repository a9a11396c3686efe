#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "availsim/net/packet.hpp"
#include "availsim/sim/flat.hpp"
#include "availsim/workload/fileset.hpp"

namespace availsim::press {

/// One node's view of which files its peers cache (locality information)
/// and how loaded each peer is (load information). Maintained from
/// CacheUpdate broadcasts and piggybacked load counters; therefore
/// *eventually consistent* — staleness during faults is part of what the
/// paper measures.
class Directory {
 public:
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
      workload::FileId file, const sim::FlatSet<net::NodeId>& coop) const;

  bool node_caches_file(net::NodeId node, workload::FileId file) const;
  std::size_t files_known_for(net::NodeId node) const;

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  // One known replica: a link in its file's singly linked list.
  struct Entry {
    net::NodeId node;
    std::uint32_t next;
  };

  /// `file`'s first replica, or nullptr when none is known.
  const Entry* first(workload::FileId file) const;
  /// The replica after `e` in its file's list, or nullptr at the tail.
  const Entry* after(const Entry& e) const;
  /// Unlinks `node` from the list that starts at `head`, if it is listed,
  /// and frees the pool entry that leaves the list.
  void unlink(Entry& head, net::NodeId node);

  // FileId -> the file's first replica, held inline (node net::kNoNode:
  // none known); its `next` starts the rest of the list in entries_.
  // Indexed directly by the dense file id and grown to the largest id
  // seen. Lists stay tiny (few replicas per file) and keep insertion
  // order, which breaks best_service_node's load ties.
  std::vector<Entry> head_;
  // The pool of every second and later replica; freed entries chain
  // through `next` from free_, so steady insert/evict traffic allocates
  // nothing.
  std::vector<Entry> entries_;
  std::uint32_t free_ = kNone;
  // NodeId -> last piggybacked load, grown to the largest id seen; a node
  // never heard from reads 0.
  std::vector<int> loads_;
};

}  // namespace availsim::press
