#pragma once

#include <optional>
#include <string>
#include <vector>

#include "availsim/sim/rng.hpp"
#include "availsim/sim/time.hpp"
#include "availsim/workload/fileset.hpp"
#include "availsim/workload/popularity.hpp"

namespace availsim::workload {

/// One request of a recorded client trace.
struct TraceEntry {
  sim::Time at = 0;  // offset from trace start
  FileId file = 0;
};

/// A request trace (the paper replays a trace gathered at Rutgers; we
/// synthesize equivalent traces from a popularity model, and support
/// saving/loading them so experiments can be replayed byte-identically
/// across machines).
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<TraceEntry> entries);

  /// Synthesizes a Poisson-arrival trace from a popularity model.
  static Trace synthesize(const Popularity& popularity, sim::Rng rng,
                          double rate_rps, sim::Time duration);

  /// Text format: one "<microseconds> <file-id>" pair per line. Creates
  /// missing parent directories.
  bool save(const std::string& path) const;
  static std::optional<Trace> load(const std::string& path);

  const std::vector<TraceEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  sim::Time duration() const {
    return entries_.empty() ? 0 : entries_.back().at;
  }
  /// Average offered rate over the trace span.
  double rate() const;

 private:
  std::vector<TraceEntry> entries_;
};

}  // namespace availsim::workload
