#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

// The benchmark's own spans around its calls into the simulator (build,
// start, warm-up, gate, window, each slice, each layer microbenchmark). Kept in
// memory and written out once, at exit, as JSON lines.
namespace availbench {

class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  // Opens a span; returns its id for close() and as a parent.
  int open(const char* name, int parent = kNoParent);
  // Closes the span; returns its duration in milliseconds.
  double close(int id);

  // One line per span: name, start/end (ms since the log was created),
  // parent id, workload, seed.
  bool write_jsonl(const std::string& path, const std::string& workload,
                   std::uint64_t seed) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    const char* name;
    double start_ms;
    double end_ms;
    int parent;
  };
  double now_ms() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace availbench
