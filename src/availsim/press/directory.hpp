#pragma once

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
  /// The replicas known for `file`, or nullptr when there are none.
  const std::vector<net::NodeId>* replicas(workload::FileId file) const;

  // FileId -> caching nodes, indexed directly by the dense file id and
  // grown to the largest id seen; an empty vector means "no known
  // replica". Vectors stay tiny (few replicas per file) and keep
  // insertion order, which breaks best_service_node's load ties.
  std::vector<std::vector<net::NodeId>> where_;
  // node -> last piggybacked load; cluster-sized, scanned per forward.
  sim::FlatMap<net::NodeId, int> loads_;
};

}  // namespace availsim::press
