#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "availsim/disk/disk.hpp"
#include "availsim/net/network.hpp"
#include "availsim/sim/rng.hpp"
#include "availsim/workload/fileset.hpp"

namespace availsim::fme {

struct FmeParams {
  /// "The FME [process] tests the disk and probes the application process
  /// every 5 seconds."
  sim::Time probe_period = 5 * sim::kSecond;
  sim::Time probe_timeout = 3 * sim::kSecond;
  /// Consecutive failed application probes before acting (debounces
  /// transients).
  int confirm = 2;
  /// Minimum spacing between application restarts.
  sim::Time restart_cooldown = 30 * sim::kSecond;
};

/// Fault Model Enforcement daemon (paper §4.5): a per-node process that
/// transforms faults *outside* the designed fault model into faults inside
/// it. It (i) probes the local disks through the SCSI generic interface
/// and (ii) probes the local application server with simple HTTP requests;
/// then
///   * disk faulty + application unresponsive  => take the whole node
///     offline for repair (=> a clean node-crash the membership service
///     and the front-end both understand), and
///   * disk healthy + application unresponsive => restart the application
///     (=> an application hang becomes a crash-restart sequence).
class FmeDaemon {
 public:
  struct Stats {
    std::uint64_t probes = 0;
    std::uint64_t probe_failures = 0;
    std::uint64_t offline_actions = 0;
    std::uint64_t restart_actions = 0;
  };

  FmeDaemon(sim::Simulator& simulator, net::Network& client_net,
            net::Host& host, sim::Rng rng, FmeParams params,
            std::vector<disk::Disk*> disks,
            workload::FileId probe_file = 0);

  void start();
  void on_host_crashed();

  /// Enforcement actions, wired to the testbed: power the node down /
  /// kill-and-restart the server process.
  std::function<void()> take_node_offline;
  std::function<void()> restart_application;

  const Stats& stats() const { return stats_; }
  std::function<void(const char* marker, net::NodeId about)> on_marker;

 private:
  bool host_ok() const { return host_.state() == net::Host::State::kUp; }
  void arm();
  void run_cycle();
  void on_probe_result(bool ok);
  bool disk_faulty() const;

  sim::Simulator& sim_;
  net::Network& net_;
  net::Host& host_;
  sim::Rng rng_;
  FmeParams p_;
  std::vector<disk::Disk*> disks_;
  workload::FileId probe_file_;
  bool running_ = false;
  std::uint64_t epoch_ = 0;
  std::uint64_t next_probe_id_ = 1;
  std::uint64_t awaiting_probe_ = 0;  // outstanding probe id (0: none)
  int consecutive_failures_ = 0;
  sim::Time last_restart_ = -1;
  Stats stats_;
};

}  // namespace availsim::fme
