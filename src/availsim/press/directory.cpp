#include "availsim/press/directory.hpp"

#include <algorithm>
#include <cassert>

namespace availsim::press {

namespace {
std::size_t idx(workload::FileId file) { return static_cast<std::size_t>(file); }
}  // namespace

const std::vector<net::NodeId>* Directory::replicas(
    workload::FileId file) const {
  if (idx(file) >= where_.size()) return nullptr;
  const std::vector<net::NodeId>& nodes = where_[idx(file)];
  return nodes.empty() ? nullptr : &nodes;
}

void Directory::node_caches(net::NodeId node, workload::FileId file) {
  assert(file >= 0);
  if (idx(file) >= where_.size()) where_.resize(idx(file) + 1);
  auto& nodes = where_[idx(file)];
  if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
    nodes.push_back(node);
  }
}

void Directory::node_evicts(net::NodeId node, workload::FileId file) {
  if (idx(file) < where_.size()) std::erase(where_[idx(file)], node);
}

void Directory::set_load(net::NodeId node, int load) { loads_[node] = load; }

int Directory::load(net::NodeId node) const {
  auto it = loads_.find(node);
  return it == loads_.end() ? 0 : it->second;
}

void Directory::remove_node(net::NodeId node) {
  loads_.erase(node);
  for (std::vector<net::NodeId>& nodes : where_) std::erase(nodes, node);
}

void Directory::install_snapshot(net::NodeId node,
                                 const std::vector<workload::FileId>& files) {
  for (auto f : files) node_caches(node, f);
}

std::optional<net::NodeId> Directory::best_service_node(
    workload::FileId file, const sim::FlatSet<net::NodeId>& coop) const {
  const std::vector<net::NodeId>* nodes = replicas(file);
  if (nodes == nullptr) return std::nullopt;
  std::optional<net::NodeId> best;
  int best_load = 0;
  for (net::NodeId n : *nodes) {
    if (!coop.contains(n)) continue;
    const int l = load(n);
    if (!best || l < best_load) {
      best = n;
      best_load = l;
    }
  }
  return best;
}

bool Directory::node_caches_file(net::NodeId node,
                                 workload::FileId file) const {
  const std::vector<net::NodeId>* nodes = replicas(file);
  return nodes != nullptr &&
         std::find(nodes->begin(), nodes->end(), node) != nodes->end();
}

std::size_t Directory::files_known_for(net::NodeId node) const {
  std::size_t n = 0;
  for (const std::vector<net::NodeId>& nodes : where_) {
    n += static_cast<std::size_t>(std::count(nodes.begin(), nodes.end(), node));
  }
  return n;
}

}  // namespace availsim::press
