#pragma once

#include "availsim/sim/rng.hpp"
#include "availsim/workload/fileset.hpp"

namespace availsim::workload {

/// Document-popularity model driving the request stream.
class Popularity {
 public:
  virtual ~Popularity() = default;
  virtual FileId sample(sim::Rng& rng) const = 0;
  /// Fraction of requests that target the `k` most popular files (ids
  /// 0..k-1); used for cache-coverage planning in tests and benches.
  virtual double coverage(int k) const = 0;
  virtual int size() const = 0;
};

/// Hot-set/cold-tail mixture: `hot_weight` of the requests go (uniformly)
/// to the `hot_count` most popular files, the rest uniformly to the tail.
/// This matches the working-set structure of Web-server traces better than
/// a pure power law for cache-sizing studies: a cluster cache that holds
/// the hot set serves most requests, a single node's cache that holds only
/// part of it misses heavily — the locality gap PRESS's cooperation
/// exploits (the paper's trace gives COOP its ~3x capacity edge).
class HotColdSampler final : public Popularity {
 public:
  HotColdSampler(int n, int hot_count, double hot_weight)
      : n_(n), hot_(hot_count), w_(hot_weight) {}

  FileId sample(sim::Rng& rng) const override {
    if (hot_ > 0 && rng.uniform() < w_) {
      return static_cast<FileId>(rng.uniform_int(0, hot_ - 1));
    }
    if (n_ <= hot_) return static_cast<FileId>(rng.uniform_int(0, n_ - 1));
    return static_cast<FileId>(rng.uniform_int(hot_, n_ - 1));
  }

  double coverage(int k) const override {
    if (k <= 0) return 0.0;
    if (k >= n_) return 1.0;
    if (k <= hot_) {
      return w_ * static_cast<double>(k) / hot_;
    }
    return w_ + (1.0 - w_) * static_cast<double>(k - hot_) / (n_ - hot_);
  }

  int size() const override { return n_; }

 private:
  int n_;
  int hot_;
  double w_;
};

}  // namespace availsim::workload
