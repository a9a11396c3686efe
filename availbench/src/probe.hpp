#pragma once

#include <array>
#include <cstdint>

#include "availsim/trace/auditor.hpp"
#include "availsim/trace/trace.hpp"
#include "availsim/harness/testbed.hpp"

namespace availbench {

using namespace availsim;

// Counters the layers already expose, read from outside the simulator.
// Every field is cumulative, so a window's value is end minus start.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t offered = 0;
  std::uint64_t served = 0;
  std::array<std::uint64_t, workload::kFailureReasonCount> failed{};
  std::uint64_t cluster_pkts = 0;  // delivered + dropped + lost
  std::uint64_t client_pkts = 0;
  std::uint64_t pkts_lost = 0;     // dropped + lost, both fabrics
  std::uint64_t disk_ops = 0;
  press::PressNode::Stats press{};  // summed over back-ends
  fme::FmeDaemon::Stats fme{};      // summed over back-ends
  std::uint64_t fe_forwarded = 0;
  std::uint64_t fe_dropped = 0;
  std::uint64_t trace_records = 0;
};

Counters read_counters(const sim::Simulator& sim, harness::Testbed& tb);
Counters delta(const Counters& end, const Counters& start);

// Deterministic digest of a window's simulated outputs: events, offered,
// served, failures by reason, packets, disk ops, per-node press stats and
// the per-second success/offered bins. Equal digests mean the same
// simulated run.
std::uint64_t digest(harness::Testbed& tb, const Counters& window,
                     sim::Time from, sim::Time to);

// Counts trace records by kind and tracks the maxima the layers emit but
// do not keep (outstanding requests, send-queue depth). It takes the
// auditor's place as the tracer's listener and forwards every record to
// it, so the auditor still checks every record while its bookkeeping
// allocations stay out of the simulator's allocation count.
class RecordCounter final : public trace::TraceListener {
 public:
  RecordCounter(trace::Tracer& tracer, trace::Auditor* auditor);
  ~RecordCounter() override;
  RecordCounter(const RecordCounter&) = delete;
  RecordCounter& operator=(const RecordCounter&) = delete;

  void on_record(const trace::TraceRecord& record) override;

  // Starts the window: zeroes the per-kind counts and the maxima.
  void open_window();

  std::uint64_t count(trace::Kind kind) const {
    return by_kind_[static_cast<std::size_t>(kind)];
  }
  std::int64_t outstanding_max() const { return outstanding_max_; }
  std::int64_t sendq_max() const { return sendq_max_; }

 private:
  trace::Tracer& tracer_;
  trace::Auditor* auditor_;
  std::array<std::uint64_t, static_cast<std::size_t>(trace::Kind::kKindCount)>
      by_kind_{};
  std::int64_t outstanding_ = 0;
  std::int64_t outstanding_max_ = 0;
  std::int64_t sendq_max_ = 0;
};

}  // namespace availbench
