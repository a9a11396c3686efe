#include "availsim/disk/disk.hpp"

#include <utility>

#include "availsim/trace/trace.hpp"

namespace availsim::disk {

Disk::Disk(sim::Simulator& simulator, DiskParams params)
    : sim_(simulator), params_(params) {}

sim::Time Disk::service_time(std::size_t bytes) const {
  return params_.seek + static_cast<sim::Time>(static_cast<double>(bytes) /
                                               params_.bandwidth_bps *
                                               sim::kSecond);
}

bool Disk::submit(std::size_t bytes, Completion done) {
  if (queue_full()) return false;
  queue_.push_back(Op{bytes, std::move(done)});
  if (!busy_ && state_ != State::kTimeoutFault) start_next();
  return true;
}

void Disk::start_next() {
  if (queue_.empty() || busy_ || state_ == State::kTimeoutFault) return;
  busy_ = true;
  inflight_ = std::move(queue_.front());
  queue_.pop_front();
  const sim::Time service = static_cast<sim::Time>(
      static_cast<double>(service_time(inflight_.bytes)) * slow_factor_);
  inflight_event_ = sim_.schedule_after(service, [this] {
    busy_ = false;
    inflight_event_ = sim::kInvalidEvent;
    ++completed_;
    Completion done = std::move(inflight_.done);
    inflight_ = Op{};
    if (done) done();
    start_next();
  });
}

void Disk::fail_timeout() {
  if (state_ == State::kTimeoutFault) return;
  state_ = State::kTimeoutFault;
  if (trace_node_ >= 0) {
    trace::emit(sim_, trace::Category::kDisk, trace::Kind::kDiskFail,
                trace_node_, trace_index_);
  }
  if (busy_) {
    // The in-flight op hangs: cancel its completion and put it back at the
    // head of the queue so it retries after repair.
    sim_.cancel(inflight_event_);
    inflight_event_ = sim::kInvalidEvent;
    busy_ = false;
    queue_.push_front(std::move(inflight_));
    inflight_ = Op{};
  }
}

void Disk::degrade(double factor) {
  if (state_ == State::kTimeoutFault) return;  // dead beats limping
  state_ = State::kDegraded;
  slow_factor_ = factor < 1 ? 1 : factor;
  if (trace_node_ >= 0) {
    trace::emit(sim_, trace::Category::kDisk, trace::Kind::kDiskDegrade,
                trace_node_, trace_index_,
                static_cast<std::int64_t>(slow_factor_ * 100));
  }
  // The in-flight op keeps its already-scheduled completion; everything
  // after it is served at the degraded rate.
}

void Disk::repair() {
  if (state_ == State::kOk) return;
  state_ = State::kOk;
  slow_factor_ = 1.0;
  if (trace_node_ >= 0) {
    trace::emit(sim_, trace::Category::kDisk, trace::Kind::kDiskRepair,
                trace_node_, trace_index_);
  }
  start_next();
}

void Disk::purge() {
  if (busy_) {
    sim_.cancel(inflight_event_);
    inflight_event_ = sim::kInvalidEvent;
    busy_ = false;
    inflight_ = Op{};
  }
  queue_.clear();
}

}  // namespace availsim::disk
