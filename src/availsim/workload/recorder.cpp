#include "availsim/workload/recorder.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace availsim::workload {

Recorder::Recorder(sim::Simulator& simulator, sim::Time bin_width)
    : sim_(simulator), bin_width_(bin_width) {
  assert(bin_width_ > 0);
}

std::size_t Recorder::bin_index_now() {
  const auto idx = static_cast<std::size_t>(sim_.now() / bin_width_);
  if (idx >= success_.size()) {
    const std::size_t need = idx + 1;
    success_.resize(need, 0);
    offered_.resize(need, 0);
    failed_.resize(need, 0);
  }
  return idx;
}

void Recorder::record_offered() {
  ++offered_[bin_index_now()];
  ++total_offered_;
}

void Recorder::record_success() {
  ++success_[bin_index_now()];
  ++total_success_;
}

void Recorder::record_failure(FailureReason reason) {
  ++failed_[bin_index_now()];
  ++total_failed_;
  ++by_reason_[static_cast<int>(reason)];
}

std::uint64_t Recorder::sum(const std::vector<std::uint32_t>& bins,
                            sim::Time from, sim::Time to) const {
  if (to <= from || bins.empty()) return 0;
  // Only bins fully inside [from, to) count: first = ceil(from / width),
  // last = floor(to / width). The old rounding (floor(from), ceil(to))
  // silently over-counted both edge bins of any non-bin-aligned window by
  // including requests that arrived outside it. Callers that need exact
  // totals must pass bin-aligned windows (every harness window is a whole
  // number of seconds); partially covered edge bins are excluded, never
  // pro-rated.
  const sim::Time lo = std::max<sim::Time>(0, from);
  const auto first =
      static_cast<std::size_t>((lo + bin_width_ - 1) / bin_width_);
  const auto last =
      std::min(bins.size(), static_cast<std::size_t>(to / bin_width_));
  std::uint64_t n = 0;
  for (std::size_t i = first; i < last; ++i) n += bins[i];
  return n;
}

std::uint64_t Recorder::successes_in(sim::Time from, sim::Time to) const {
  return sum(success_, from, to);
}

std::uint64_t Recorder::offered_in(sim::Time from, sim::Time to) const {
  return sum(offered_, from, to);
}

double Recorder::mean_throughput(sim::Time from, sim::Time to) const {
  if (to <= from) return 0.0;
  return static_cast<double>(successes_in(from, to)) / sim::to_seconds(to - from);
}

double Recorder::availability(sim::Time from, sim::Time to) const {
  const std::uint64_t offered = offered_in(from, to);
  // Zero offered requests means the window measured nothing — returning
  // 1.0 here let an empty (misconfigured or too-short) measurement window
  // masquerade as perfect availability. NaN forces callers to decide.
  if (offered == 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(successes_in(from, to)) /
         static_cast<double>(offered);
}

}  // namespace availsim::workload
