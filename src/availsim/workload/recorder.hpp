#pragma once

#include <cstdint>
#include <vector>

#include "availsim/sim/simulator.hpp"
#include "availsim/sim/time.hpp"

namespace availsim::workload {

enum class FailureReason {
  kRefused,            // connection refused (process/node down) — fast fail
  kConnectTimeout,     // 2 s: connection could not be established
  kCompletionTimeout,  // 6 s: connected but the reply never came
};
inline constexpr int kFailureReasonCount = 3;

/// Records every request outcome into fixed-width time bins. This is the
/// measurement instrument of the methodology's Phase 1: throughput is
/// "requests successfully served per second" and availability is "the
/// percentage of requests served successfully".
class Recorder {
 public:
  explicit Recorder(sim::Simulator& simulator,
                    sim::Time bin_width = sim::kSecond);

  void record_offered();
  void record_success();
  void record_failure(FailureReason reason);

  sim::Time bin_width() const { return bin_width_; }
  std::size_t bin_count() const { return success_.size(); }

  /// Per-bin series (requests per bin, bin 0 starting at t=0).
  const std::vector<std::uint32_t>& success_bins() const { return success_; }
  const std::vector<std::uint32_t>& offered_bins() const { return offered_; }
  const std::vector<std::uint32_t>& failed_bins() const { return failed_; }

  /// Mean successful throughput (req/s) over [from, to).
  double mean_throughput(sim::Time from, sim::Time to) const;

  /// Totals over [from, to). Only bins fully inside the window count;
  /// partially covered edge bins are excluded (never pro-rated or
  /// over-counted), so pass bin-aligned windows for exact totals.
  std::uint64_t successes_in(sim::Time from, sim::Time to) const;
  std::uint64_t offered_in(sim::Time from, sim::Time to) const;

  /// Fraction of offered requests served successfully over [from, to) —
  /// the paper's availability metric, measured directly. NaN when the
  /// window saw zero offered requests: an empty window measured nothing
  /// and must not read as perfect availability.
  double availability(sim::Time from, sim::Time to) const;

  std::uint64_t total_offered() const { return total_offered_; }
  std::uint64_t total_success() const { return total_success_; }
  std::uint64_t total_failed() const { return total_failed_; }
  std::uint64_t failures_by_reason(FailureReason reason) const {
    return by_reason_[static_cast<int>(reason)];
  }

 private:
  std::size_t bin_index_now();
  std::uint64_t sum(const std::vector<std::uint32_t>& bins, sim::Time from,
                    sim::Time to) const;

  sim::Simulator& sim_;
  sim::Time bin_width_;
  std::vector<std::uint32_t> success_;
  std::vector<std::uint32_t> offered_;
  std::vector<std::uint32_t> failed_;
  std::uint64_t total_offered_ = 0;
  std::uint64_t total_success_ = 0;
  std::uint64_t total_failed_ = 0;
  std::uint64_t by_reason_[kFailureReasonCount] = {};
};

}  // namespace availsim::workload
