#include "availsim/net/channel.hpp"

#include <algorithm>
#include <utility>

namespace availsim::net {

namespace {

// Flushes replay in park order: the per-flow buckets drain in flow-key
// order, not the chronological order packets were held in — sorting by the
// park sequence restores that order, keeping runs bit-for-bit reproducible.
void sort_by_park_order(std::vector<FlowTable::PendingSend>& sends) {
  std::sort(sends.begin(), sends.end(),
            [](const FlowTable::PendingSend& a,
               const FlowTable::PendingSend& b) { return a.seq < b.seq; });
}

}  // namespace

sim::Time FlowTable::sequence(NodeId src, NodeId dst, sim::Time proposed) {
  auto& last = last_delivery_[key(src, dst)];
  if (proposed <= last) proposed = last + 1;  // strictly after, 1 ns apart
  last = proposed;
  return proposed;
}

void FlowTable::park(NodeId src, NodeId dst, PendingSend send) {
  send.seq = next_park_seq_++;
  parked_[key(src, dst)].push_back(std::move(send));
}

std::vector<FlowTable::PendingSend> FlowTable::take_parked_touching(NodeId node) {
  std::vector<PendingSend> out;
  for (auto it = parked_.begin(); it != parked_.end();) {
    const NodeId src = static_cast<NodeId>(it->first >> 32);
    const NodeId dst = static_cast<NodeId>(it->first & 0xFFFFFFFFu);
    if (src == node || dst == node) {
      for (auto& p : it->second) out.push_back(std::move(p));
      it = parked_.erase(it);
    } else {
      ++it;
    }
  }
  sort_by_park_order(out);
  return out;
}

std::vector<FlowTable::PendingSend> FlowTable::take_all_parked() {
  std::vector<PendingSend> out;
  for (auto& [k, vec] : parked_) {
    for (auto& p : vec) out.push_back(std::move(p));
  }
  parked_.clear();
  sort_by_park_order(out);
  return out;
}

std::vector<FlowTable::PendingSend> FlowTable::take_parked_to(NodeId dst) {
  std::vector<PendingSend> out;
  for (auto it = parked_.begin(); it != parked_.end();) {
    const NodeId d = static_cast<NodeId>(it->first & 0xFFFFFFFFu);
    if (d == dst) {
      for (auto& p : it->second) out.push_back(std::move(p));
      it = parked_.erase(it);
    } else {
      ++it;
    }
  }
  sort_by_park_order(out);
  return out;
}

std::size_t FlowTable::parked_count() const {
  std::size_t n = 0;
  for (const auto& [k, vec] : parked_) n += vec.size();
  return n;
}

}  // namespace availsim::net
