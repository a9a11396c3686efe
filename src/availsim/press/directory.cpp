#include "availsim/press/directory.hpp"

#include <cassert>

namespace availsim::press {

namespace {
std::size_t idx(int id) { return static_cast<std::size_t>(id); }
}  // namespace

std::uint32_t Directory::first(workload::FileId file) const {
  return idx(file) < head_.size() ? head_[idx(file)] : kNone;
}

void Directory::node_caches(net::NodeId node, workload::FileId file) {
  assert(file >= 0);
  if (idx(file) >= head_.size()) head_.resize(idx(file) + 1, kNone);
  // Walk to the tail: a node already listed keeps its place, a new one
  // goes last.
  std::uint32_t tail = kNone;
  for (std::uint32_t e = head_[idx(file)]; e != kNone; e = entries_[e].next) {
    if (entries_[e].node == node) return;
    tail = e;
  }
  std::uint32_t e = free_;
  if (e == kNone) {
    e = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(Entry{node, kNone});
  } else {
    free_ = entries_[e].next;
    entries_[e] = Entry{node, kNone};
  }
  (tail == kNone ? head_[idx(file)] : entries_[tail].next) = e;
}

void Directory::unlink(std::uint32_t& head, net::NodeId node) {
  for (std::uint32_t* link = &head; *link != kNone;
       link = &entries_[*link].next) {
    Entry& entry = entries_[*link];
    if (entry.node != node) continue;
    const std::uint32_t freed = *link;
    *link = entry.next;
    entry.next = free_;
    free_ = freed;
    return;
  }
}

void Directory::node_evicts(net::NodeId node, workload::FileId file) {
  if (idx(file) < head_.size()) unlink(head_[idx(file)], node);
}

void Directory::set_load(net::NodeId node, int load) {
  assert(node >= 0);
  if (idx(node) >= loads_.size()) loads_.resize(idx(node) + 1, 0);
  loads_[idx(node)] = load;
}

int Directory::load(net::NodeId node) const {
  assert(node >= 0);
  return idx(node) < loads_.size() ? loads_[idx(node)] : 0;
}

void Directory::remove_node(net::NodeId node) {
  assert(node >= 0);
  if (idx(node) < loads_.size()) loads_[idx(node)] = 0;
  for (std::uint32_t& head : head_) unlink(head, node);
}

void Directory::install_snapshot(net::NodeId node,
                                 const std::vector<workload::FileId>& files) {
  for (auto f : files) node_caches(node, f);
}

std::optional<net::NodeId> Directory::best_service_node(
    workload::FileId file, const sim::FlatSet<net::NodeId>& coop) const {
  std::optional<net::NodeId> best;
  int best_load = 0;
  for (std::uint32_t e = first(file); e != kNone; e = entries_[e].next) {
    const net::NodeId n = entries_[e].node;
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
  for (std::uint32_t e = first(file); e != kNone; e = entries_[e].next) {
    if (entries_[e].node == node) return true;
  }
  return false;
}

std::size_t Directory::files_known_for(net::NodeId node) const {
  std::size_t n = 0;
  for (std::uint32_t head : head_) {
    for (std::uint32_t e = head; e != kNone; e = entries_[e].next) {
      if (entries_[e].node == node) ++n;
    }
  }
  return n;
}

}  // namespace availsim::press
