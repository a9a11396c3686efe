#include "spans.hpp"

#include <cstdio>

namespace availbench {

double SpanLog::now_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
      .count();
}

int SpanLog::open(const char* name, int parent) {
  spans_.push_back({name, now_ms(), -1.0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ms = now_ms();
  return s.end_ms - s.start_ms;
}

bool SpanLog::write_jsonl(const std::string& path, const std::string& workload,
                          std::uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.4f, "
                 "\"end_ms\": %.4f, \"parent\": %d, \"workload\": \"%s\", "
                 "\"seed\": %llu}\n",
                 i, s.name, s.start_ms, s.end_ms, s.parent, workload.c_str(),
                 static_cast<unsigned long long>(seed));
  }
  return std::fclose(f) == 0;
}

}  // namespace availbench
