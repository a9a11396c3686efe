#include "availsim/workload/trace.hpp"

#include <cassert>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

namespace availsim::workload {

Trace::Trace(std::vector<TraceEntry> entries) : entries_(std::move(entries)) {}

Trace Trace::synthesize(const Popularity& popularity, sim::Rng rng,
                        double rate_rps, sim::Time duration) {
  assert(rate_rps > 0);
  std::vector<TraceEntry> entries;
  entries.reserve(static_cast<std::size_t>(
      sim::to_seconds(duration) * rate_rps * 1.1));
  sim::Time t = 0;
  while (true) {
    t += sim::from_seconds(rng.exponential(1.0 / rate_rps));
    if (t >= duration) break;
    entries.push_back(TraceEntry{t, popularity.sample(rng)});
  }
  return Trace(std::move(entries));
}

bool Trace::save(const std::string& path) const {
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  std::error_code ec;  // a failure shows up as the open failing below
  if (!dir.empty()) std::filesystem::create_directories(dir, ec);
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& e : entries_) {
    out << e.at / sim::kMicrosecond << " " << e.file << "\n";
  }
  return static_cast<bool>(out);
}

std::optional<Trace> Trace::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::vector<TraceEntry> entries;
  long long us = 0;
  FileId file = 0;
  sim::Time last = -1;
  while (in >> us >> file) {
    const sim::Time at = us * sim::kMicrosecond;
    if (at < last) return std::nullopt;  // corrupt: not time-ordered
    last = at;
    entries.push_back(TraceEntry{at, file});
  }
  if (!in.eof()) return std::nullopt;
  return Trace(std::move(entries));
}

double Trace::rate() const {
  if (entries_.size() < 2 || duration() == 0) return 0;
  return static_cast<double>(entries_.size()) / sim::to_seconds(duration());
}

}  // namespace availsim::workload
