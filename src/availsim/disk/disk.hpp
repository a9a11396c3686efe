#pragma once

#include <cstddef>
#include <deque>

#include "availsim/sim/event_fn.hpp"
#include "availsim/sim/simulator.hpp"
#include "availsim/sim/time.hpp"

namespace availsim::disk {

struct DiskParams {
  /// Average positioning time (seek + rotational latency) per operation.
  sim::Time seek = 22 * sim::kMillisecond;
  /// Sustained transfer bandwidth, bytes per second.
  double bandwidth_bps = 30e6;
  /// Maximum outstanding operations. A full queue back-pressures the
  /// server: PRESS's coordinating thread blocks when it cannot enqueue a
  /// disk op, which is exactly the wedge that makes SCSI faults so
  /// damaging in the paper.
  std::size_t queue_capacity = 128;
};

/// A single queued disk with a SCSI-timeout fault mode and a gray
/// degraded-service mode.
///
/// In the timeout fault mode, the in-flight operation and everything
/// queued behind it hang (no completion and no error, as observed with
/// real SCSI timeouts). When the hardware is repaired, the backlog drains
/// and completions fire; whether the *server* recovers at that point
/// depends on its membership state, not on the disk.
///
/// In the degraded mode (media retries, a dying spindle) every operation
/// completes, but at a fraction of the healthy service rate — the disk is
/// limping, not dead, so queue-depth detectors tuned for wedges miss it.
class Disk {
 public:
  enum class State { kOk, kTimeoutFault, kDegraded };

  using Completion = sim::EventFn;

  Disk(sim::Simulator& simulator, DiskParams params);

  /// Enqueues a read/write of `bytes`. Returns false when the queue is
  /// full (the caller must block or shed load). `done` fires when the
  /// operation completes; it never fires while the disk is faulty.
  bool submit(std::size_t bytes, Completion done);

  std::size_t queue_depth() const { return queue_.size() + (busy_ ? 1u : 0u); }
  bool queue_full() const { return queue_depth() >= params_.queue_capacity; }
  State state() const { return state_; }

  /// Expected service time for one operation of `bytes` (for capacity
  /// planning in tests/benches).
  sim::Time service_time(std::size_t bytes) const;

  /// SCSI timeout fault: the disk stops completing operations.
  void fail_timeout();

  /// Gray fault: the disk keeps serving at 1/`factor` of its healthy rate.
  /// A no-op while a timeout fault is active (dead beats limping).
  void degrade(double factor);

  /// Hardware repaired/replaced: backlog drains normally from here on.
  /// Clears both the timeout fault and any degradation.
  void repair();

  double slow_factor() const { return slow_factor_; }

  /// Labels this disk for structured tracing (owning node id + index on
  /// that node). Without a label, fault-state transitions are not traced.
  void set_trace_identity(std::int32_t node, std::int64_t index) {
    trace_node_ = node;
    trace_index_ = index;
  }

  /// Drops all queued and in-flight operations without completing them
  /// (used when the owning process is killed/restarted).
  void purge();

  std::uint64_t ops_completed() const { return completed_; }

 private:
  struct Op {
    std::size_t bytes;
    Completion done;
  };

  void start_next();

  sim::Simulator& sim_;
  DiskParams params_;
  std::int32_t trace_node_ = -1;
  std::int64_t trace_index_ = 0;
  State state_ = State::kOk;
  double slow_factor_ = 1.0;
  bool busy_ = false;
  sim::EventId inflight_event_ = sim::kInvalidEvent;
  Op inflight_{};
  std::deque<Op> queue_;
  std::uint64_t completed_ = 0;
};

}  // namespace availsim::disk
