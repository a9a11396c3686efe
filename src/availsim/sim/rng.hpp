#pragma once

#include <array>
#include <cstdint>

namespace availsim::sim {

/// Deterministic xoshiro256++ pseudo-random generator with splitmix64
/// seeding. Each simulated component gets its own stream via fork(), so
/// adding or removing one component never perturbs another component's
/// random sequence (critical for A/B fault-injection comparisons).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Derives an independent child stream; `stream` labels the child so
  /// fork(1) and fork(2) from the same parent are decorrelated.
  Rng fork(std::uint64_t stream) const;

  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed with the given mean (> 0).
  double exponential(double mean);

  bool bernoulli(double p);

  /// Normal via Box-Muller (used for jittering service times).
  double normal(double mean, double stddev);

 private:
  std::array<std::uint64_t, 4> s_{};
  std::uint64_t seed_ = 0;  // retained for fork()
};

}  // namespace availsim::sim
