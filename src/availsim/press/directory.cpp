#include "availsim/press/directory.hpp"

#include <cassert>
#include <stdexcept>

namespace availsim::press {

namespace {

std::size_t idx(int id) { return static_cast<std::size_t>(id); }

// An inline record's two replica fields (directory.hpp).
constexpr int kFieldBits = 15;
constexpr std::uint32_t kFieldMask = (std::uint32_t{1} << kFieldBits) - 1;

// The inline record of `a` then `b`; kNoNode packs as an empty field.
std::uint32_t pack(net::NodeId a, net::NodeId b) {
  return static_cast<std::uint32_t>(a + 1) |
         static_cast<std::uint32_t>(b + 1) << kFieldBits;
}
net::NodeId first_of(std::uint32_t r) {
  return static_cast<net::NodeId>(r & kFieldMask) - 1;
}
net::NodeId second_of(std::uint32_t r) {
  return static_cast<net::NodeId>(r >> kFieldBits & kFieldMask) - 1;
}

}  // namespace

template <typename Visit>
void Directory::for_each_replica(workload::FileId file, Visit visit) const {
  if (idx(file) >= records_.size()) return;
  const Record r = records_[idx(file)];
  if (r & kPooled) {
    for (std::uint32_t e = r & ~kPooled; e != kNone; e = entries_[e].next) {
      visit(entries_[e].node);
    }
  } else if (r != 0) {
    visit(first_of(r));
    if (second_of(r) != net::kNoNode) visit(second_of(r));
  }
}

std::uint32_t Directory::link(net::NodeId node, std::uint32_t next) {
  std::uint32_t e = free_;
  if (e == kNone) {
    e = static_cast<std::uint32_t>(entries_.size());
    assert(e < kPooled);
    entries_.push_back(Entry{node, next});
  } else {
    free_ = entries_[e].next;
    entries_[e] = Entry{node, next};
  }
  return e;
}

void Directory::release(std::uint32_t e) {
  entries_[e].next = free_;
  free_ = e;
}

void Directory::node_caches(net::NodeId node, workload::FileId file) {
  assert(node >= 0 && file >= 0);
  if (node >= static_cast<net::NodeId>(kFieldMask)) {
    throw std::length_error("Directory: NodeId over 32,766");
  }
  if (idx(file) >= records_.size()) records_.resize(idx(file) + 1, 0);
  Record& r = records_[idx(file)];
  if (r & kPooled) {
    // Walk to the tail: a node already listed keeps its place, a new one
    // goes last.
    std::uint32_t tail = r & ~kPooled;
    for (;; tail = entries_[tail].next) {
      if (entries_[tail].node == node) return;
      if (entries_[tail].next == kNone) break;
    }
    const std::uint32_t e = link(node, kNone);
    entries_[tail].next = e;
    return;
  }
  const net::NodeId a = first_of(r);
  const net::NodeId b = second_of(r);
  if (a == node || b == node) return;
  if (a == net::kNoNode) {
    r = pack(node, net::kNoNode);
  } else if (b == net::kNoNode) {
    r = pack(a, node);
  } else {
    // A third replica: the whole list moves to the pool, in order.
    r = kPooled | link(a, link(b, link(node, kNone)));
  }
}

void Directory::unlink(Record& r, net::NodeId node) {
  if (!(r & kPooled)) {
    // The second replica moves up when the first goes.
    if (first_of(r) == node) {
      r = pack(second_of(r), net::kNoNode);
    } else if (second_of(r) == node) {
      r = pack(first_of(r), net::kNoNode);
    }
    return;
  }
  std::uint32_t head = r & ~kPooled;
  std::uint32_t* at = &head;
  while (*at != kNone && entries_[*at].node != node) at = &entries_[*at].next;
  if (*at == kNone) return;
  const std::uint32_t gone = *at;
  *at = entries_[gone].next;
  release(gone);
  // At least two replicas are left; exactly two move back inline.
  const std::uint32_t second = entries_[head].next;
  if (entries_[second].next != kNone) {
    r = kPooled | head;
    return;
  }
  r = pack(entries_[head].node, entries_[second].node);
  release(second);
  release(head);
}

void Directory::node_evicts(net::NodeId node, workload::FileId file) {
  if (idx(file) < records_.size()) unlink(records_[idx(file)], node);
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
  for (Record& r : records_) unlink(r, node);
}

void Directory::install_snapshot(net::NodeId node,
                                 const std::vector<workload::FileId>& files) {
  for (auto f : files) node_caches(node, f);
}

std::optional<net::NodeId> Directory::best_service_node(
    workload::FileId file, const sim::NodeSet& coop) const {
  std::optional<net::NodeId> best;
  int best_load = 0;
  for_each_replica(file, [&](net::NodeId n) {
    if (!coop.contains(n)) return;
    const int l = load(n);
    if (!best || l < best_load) {
      best = n;
      best_load = l;
    }
  });
  return best;
}

bool Directory::node_caches_file(net::NodeId node,
                                 workload::FileId file) const {
  bool found = false;
  for_each_replica(file, [&](net::NodeId n) { found |= n == node; });
  return found;
}

std::size_t Directory::files_known_for(net::NodeId node) const {
  std::size_t n = 0;
  for (std::size_t f = 0; f < records_.size(); ++f) {
    for_each_replica(static_cast<workload::FileId>(f),
                     [&](net::NodeId m) { n += m == node; });
  }
  return n;
}

}  // namespace availsim::press
