#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace availsim::harness {

/// Number of worker threads a campaign should use: `requested` when > 0,
/// otherwise the AVAILSIM_JOBS environment variable, otherwise the
/// hardware concurrency (at least 1).
int resolve_jobs(int requested = 0);

/// Extracts `--jobs N` / `--jobs=N` / `-jN` from argv (compacting argc and
/// argv so positional arguments keep working) and returns resolve_jobs(N),
/// or resolve_jobs(def) when the flag is absent.
int parse_jobs_flag(int& argc, char** argv, int def = 1);

/// Extracts `--audit`, `--trace` and `--trace=DIR` from argv (compacting
/// argc/argv exactly like parse_jobs_flag) and maps them onto the
/// environment switches every Testbed honours: `--audit` sets
/// AVAILSIM_AUDIT=1 (online invariant auditing), `--trace[=DIR]` sets
/// AVAILSIM_TRACE_DIR (JSONL export on teardown; DIR defaults to ".").
void parse_trace_flags(int& argc, char** argv);

namespace detail {

/// Runs task(i) for every i in [0, count) on up to `jobs` threads. Indices
/// are handed out in order from a shared atomic counter. If tasks throw,
/// the exception of the lowest replica index is rethrown after all workers
/// drain (deterministic even in failure).
void run_indexed(int jobs, int count, const std::function<void(int)>& task);

}  // namespace detail

/// Parallel campaign runner: fans `count` independent replicas of a fault
/// campaign across up to `jobs` worker threads and returns their results
/// **in replica-index order — never completion order** — so, provided each
/// replica is deterministic and self-contained, the aggregate is
/// byte-identical for every jobs value (`--jobs N` == `--jobs 1`).
///
/// Each replica must own its entire simulation world (Simulator, Network,
/// Rng, Testbed); the substrate is single-threaded by design and nothing
/// may be shared mutably across replicas. Replicas also must not write to
/// stdout — return log text as part of the result and print it after the
/// join (see experiment.hpp's Characterization::progress).
template <typename Fn>
auto run_replicas(int jobs, int count, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, int>> {
  using R = std::invoke_result_t<Fn&, int>;
  std::vector<std::optional<R>> slots(static_cast<std::size_t>(count));
  detail::run_indexed(jobs, count,
                      [&](int i) { slots[static_cast<std::size_t>(i)].emplace(fn(i)); });
  std::vector<R> out;
  out.reserve(slots.size());
  for (auto& s : slots) out.push_back(std::move(*s));
  return out;
}

/// Wall-clock stopwatch for campaign/bench timings.
///
/// This is the repo's single sanctioned wall-clock read (availlint's
/// det-clock allowlist carries exactly this file): readings measure how
/// long a campaign took on the host for BENCH_*.json reporting, and never
/// feed simulation state, event scheduling, or exported simulation
/// results — so byte-identical replay is unaffected by it.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Minimal writer for the BENCH_*.json perf-trajectory artifacts: a flat
/// JSON object whose keys appear in insertion order.
class BenchJson {
 public:
  void add(const std::string& key, double value);
  void add(const std::string& key, std::uint64_t value);
  void add(const std::string& key, int value);
  void add(const std::string& key, const std::string& value);
  /// Emits `"key": null` — for metrics that were not measured in this run
  /// (e.g. campaign speedup with --jobs 1), so consumers can tell "not
  /// applicable" apart from a real value.
  void add_null(const std::string& key);
  std::string str() const;
  bool write(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace availsim::harness
