#include "availsim/press/directory.hpp"

#include <cassert>

namespace availsim::press {

namespace {
std::size_t idx(int id) { return static_cast<std::size_t>(id); }
}  // namespace

const Directory::Entry* Directory::first(workload::FileId file) const {
  if (idx(file) >= head_.size() || head_[idx(file)].node == net::kNoNode) {
    return nullptr;
  }
  return &head_[idx(file)];
}

const Directory::Entry* Directory::after(const Entry& e) const {
  return e.next == kNone ? nullptr : &entries_[e.next];
}

void Directory::node_caches(net::NodeId node, workload::FileId file) {
  assert(node >= 0 && file >= 0);
  if (idx(file) >= head_.size()) {
    head_.resize(idx(file) + 1, Entry{net::kNoNode, kNone});
  }
  Entry& head = head_[idx(file)];
  if (head.node == net::kNoNode) {
    head.node = node;
    return;
  }
  if (head.node == node) return;
  // Walk to the tail: a node already listed keeps its place, a new one
  // goes last.
  std::uint32_t tail = kNone;
  for (std::uint32_t e = head.next; e != kNone; e = entries_[e].next) {
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
  (tail == kNone ? head.next : entries_[tail].next) = e;
}

void Directory::unlink(Entry& head, net::NodeId node) {
  std::uint32_t freed;
  if (head.node == node) {
    freed = head.next;
    if (freed == kNone) {
      head.node = net::kNoNode;
      return;
    }
    head = entries_[freed];  // the second replica moves inline
  } else {
    std::uint32_t* link = &head.next;
    while (*link != kNone && entries_[*link].node != node) {
      link = &entries_[*link].next;
    }
    if (*link == kNone) return;
    freed = *link;
    *link = entries_[freed].next;
  }
  entries_[freed].next = free_;
  free_ = freed;
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
  for (Entry& head : head_) unlink(head, node);
}

void Directory::install_snapshot(net::NodeId node,
                                 const std::vector<workload::FileId>& files) {
  for (auto f : files) node_caches(node, f);
}

std::optional<net::NodeId> Directory::best_service_node(
    workload::FileId file, const sim::FlatSet<net::NodeId>& coop) const {
  std::optional<net::NodeId> best;
  int best_load = 0;
  for (const Entry* e = first(file); e != nullptr; e = after(*e)) {
    const net::NodeId n = e->node;
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
  for (const Entry* e = first(file); e != nullptr; e = after(*e)) {
    if (e->node == node) return true;
  }
  return false;
}

std::size_t Directory::files_known_for(net::NodeId node) const {
  std::size_t n = 0;
  for (std::size_t f = 0; f < head_.size(); ++f) {
    for (const Entry* e = first(static_cast<workload::FileId>(f)); e != nullptr;
         e = after(*e)) {
      if (e->node == node) ++n;
    }
  }
  return n;
}

}  // namespace availsim::press
