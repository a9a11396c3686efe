#include "availsim/qmon/qmon.hpp"

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
  if (head.is_request &&
      in_flight_.size() >= static_cast<std::size_t>(window_)) {
    return std::nullopt;  // window closed: wait for credits
  }
  Entry out = std::move(queue_.front());
  queue_.pop_front();
  if (out.is_request) {
    --queued_requests_;
    in_flight_.insert(out.request_id);
    outstanding_.emplace(out.request_id, now);
  }
  return out;
}

bool SelfMonitoringQueue::credit(std::uint64_t request_id) {
  return in_flight_.erase(request_id);
}

void SelfMonitoringQueue::complete(std::uint64_t request_id) {
  outstanding_.erase(request_id);
}

sim::Time SelfMonitoringQueue::oldest_outstanding_age(sim::Time now) const {
  sim::Time oldest = 0;
  // availlint: ordered-ok(commutative max fold)
  for (const auto& [id, sent] : outstanding_) {
    const sim::Time age = now > sent ? now - sent : 0;
    if (age > oldest) oldest = age;
  }
  return oldest;
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
  // In-flight ids leave in ascending order (flat set iteration): the caller
  // fails them one by one, so the order is part of the event schedule.
  ids.insert(ids.end(), in_flight_.begin(), in_flight_.end());
  queue_.clear();
  queued_requests_ = 0;
  in_flight_.clear();
  outstanding_.clear();
  return ids;
}

}  // namespace availsim::qmon
