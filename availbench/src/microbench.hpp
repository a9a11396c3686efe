#pragma once

#include <cstddef>
#include <cstdint>

#include "spans.hpp"

// Layer microbenchmarks: time one layer's public functions in isolation,
// on the input shape the workload's own run showed (cluster size,
// pending-event depth, event mix, file stream and cache capacity, qmon
// policy). Each repeats a fixed amount of work and reports the median.
namespace availbench {

struct LayerShape {
  int servers = 0;           // PRESS processes (back-ends, +1 with an FE)
  std::size_t pending = 0;   // live pending events in the window
  double events_per_req = 0;
  double offered_rps = 0;
  bool qmon_enabled = false;
  std::uint64_t seed = 1;
};

struct MicrobenchResults {
  double sim_ns_per_event = 0;
  double net_ns_per_packet = 0;
  double cache_ns_per_op = 0;
  double dir_lookup_ns = 0;
  double dir_update_ns = 0;
  double qmon_ns_per_op = 0;
};

MicrobenchResults run_microbenches(const LayerShape& shape, SpanLog& spans,
                          int parent);

}  // namespace availbench
