#include "availsim/net/channel.hpp"

#include <algorithm>
#include <utility>

#include "availsim/snapshot/state_io.hpp"

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

void FlowTable::save_state(snapshot::StateWriter& w) const {
  w.section("flows");
  w.u64(last_delivery_.size());
  for (const auto& [k, t] : last_delivery_) {  // flat map: ascending keys
    w.u64(k);
    w.i64(t);
  }
  w.u64(parked_.size());
  for (const auto& [k, sends] : parked_) {
    w.u64(k);
    w.u64(sends.size());
    // Parked sends carry live packets; they ride the boxed side channel
    // whole (PendingSend is copyable). Their refusal callbacks stay in the
    // Network's table, which the Network saves itself.
    for (const PendingSend& p : sends) w.box(p);
  }
  w.u64(next_park_seq_);
}

void FlowTable::restore_state(snapshot::StateReader& r) {
  r.section("flows");
  last_delivery_.clear();
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    const std::uint64_t k = r.u64();
    last_delivery_[k] = r.i64();
  }
  parked_.clear();
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    const std::uint64_t k = r.u64();
    std::vector<PendingSend>& sends = parked_[k];
    const std::uint64_t count = r.u64();
    sends.reserve(count);
    for (std::uint64_t j = 0; j < count; ++j) {
      sends.push_back(r.unbox<PendingSend>());
    }
  }
  next_park_seq_ = r.u64();
}

std::size_t FlowTable::parked_count() const {
  std::size_t n = 0;
  for (const auto& [k, vec] : parked_) n += vec.size();
  return n;
}

}  // namespace availsim::net
