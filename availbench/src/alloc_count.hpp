#pragma once

#include <cstdint>

// Allocation counter for the benchmark binary only: global operator
// new/delete are replaced in alloc_count.cpp, so every heap allocation the
// simulator makes is counted while counting is on. The counts are a
// deterministic function of the seed, unlike host time.
namespace availbench::alloc {

struct Counts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

void start();   // zero the counts and start counting
Counts stop();  // stop counting; the counts since start()

// Suspends counting for its scope: benchmark bookkeeping that runs inside
// the measured window (the trace listener, the auditor it forwards to)
// must not show up as simulator allocations.
class Pause {
 public:
  Pause();
  ~Pause();
  Pause(const Pause&) = delete;
  Pause& operator=(const Pause&) = delete;

 private:
  bool was_on_;
};

}  // namespace availbench::alloc
