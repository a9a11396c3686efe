#include "availsim/qmon/qmon.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace availsim::qmon {

SelfMonitoringQueue::SelfMonitoringQueue(QmonPolicy policy,
                                         std::size_t block_capacity,
                                         int window)
    : policy_(policy), block_capacity_(block_capacity), window_(window) {}

bool SelfMonitoringQueue::over_reroute_threshold() const {
  return policy_.enabled && queued_requests_ >= policy_.reroute_requests;
}

bool SelfMonitoringQueue::over_fail_threshold() const {
  return policy_.enabled && (queued_requests_ >= policy_.fail_requests ||
                             queue_.size() >= policy_.fail_total);
}

bool SelfMonitoringQueue::at_block_capacity() const {
  return queue_.size() >= block_capacity_;
}

bool SelfMonitoringQueue::admit_probe(sim::Rng& rng) const {
  return rng.uniform() < policy_.probe_fraction;
}

SelfMonitoringQueue::PushResult SelfMonitoringQueue::push(Entry entry,
                                                          sim::Rng& rng) {
  if (policy_.enabled) {
    if (entry.is_request && over_reroute_threshold() && !admit_probe(rng)) {
      return PushResult::kReroute;
    }
    // With monitoring the queue never blocks the coordinating thread: it
    // grows until the fail threshold removes the peer.
  } else if (at_block_capacity()) {
    return PushResult::kWouldBlock;
  }
  if (entry.is_request) ++queued_requests_;
  queue_.push_back(std::move(entry));
  return PushResult::kQueued;
}

std::optional<SelfMonitoringQueue::Entry>
SelfMonitoringQueue::pop_transmittable(sim::Time now) {
  if (queue_.empty()) return std::nullopt;
  const Entry& head = queue_.front();
  if (head.is_request && in_flight_ >= static_cast<std::size_t>(window_)) {
    return std::nullopt;  // window closed: wait for credits
  }
  Entry out = std::move(queue_.front());
  queue_.pop_front();
  if (out.is_request) {
    --queued_requests_;
    assert(sent_.empty() || sent_.back().request_id < out.request_id);
    sent_.push_back(Sent{out.request_id, now});
    ++in_flight_;
  }
  return out;
}

bool SelfMonitoringQueue::settle(std::uint64_t request_id,
                                 bool Sent::*flag) {
  auto it = std::lower_bound(
      sent_.begin(), sent_.end(), request_id,
      [](const Sent& s, std::uint64_t id) { return s.request_id < id; });
  if (it == sent_.end() || it->request_id != request_id || (*it).*flag) {
    return false;
  }
  (*it).*flag = true;
  if (it->credited && it->completed) sent_.erase(it);
  return true;
}

bool SelfMonitoringQueue::credit(std::uint64_t request_id) {
  if (!settle(request_id, &Sent::credited)) return false;
  --in_flight_;
  return true;
}

void SelfMonitoringQueue::complete(std::uint64_t request_id) {
  settle(request_id, &Sent::completed);
}

sim::Time SelfMonitoringQueue::oldest_outstanding_age(sim::Time now) const {
  for (const Sent& s : sent_) {
    if (!s.completed) return now > s.at ? now - s.at : 0;
  }
  return 0;
}

bool SelfMonitoringQueue::over_slow_threshold(sim::Time now) const {
  return policy_.enabled && policy_.slow_peer_age > 0 &&
         oldest_outstanding_age(now) > policy_.slow_peer_age;
}

std::vector<std::uint64_t> SelfMonitoringQueue::purge() {
  std::vector<std::uint64_t> ids;
  for (const auto& e : queue_) {
    if (e.is_request) ids.push_back(e.request_id);
  }
  // In-flight ids leave in ascending order: the caller fails them one by
  // one, so the order is part of the event schedule.
  for (const Sent& s : sent_) {
    if (!s.credited) ids.push_back(s.request_id);
  }
  queue_.clear();
  queued_requests_ = 0;
  sent_.clear();
  in_flight_ = 0;
  return ids;
}

}  // namespace availsim::qmon
