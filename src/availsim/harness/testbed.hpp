#pragma once

#include <memory>
#include <string>
#include <vector>

#include "availsim/fault/fault.hpp"
#include "availsim/fault/injector.hpp"
#include "availsim/fme/fme.hpp"
#include "availsim/fme/sfme.hpp"
#include "availsim/frontend/frontend.hpp"
#include "availsim/frontend/monitor.hpp"
#include "availsim/membership/board.hpp"
#include "availsim/membership/client_lib.hpp"
#include "availsim/membership/member_server.hpp"
#include "availsim/press/press_node.hpp"
#include "availsim/trace/auditor.hpp"
#include "availsim/workload/client.hpp"
#include "availsim/workload/recorder.hpp"

namespace availsim::harness {

/// The server versions evaluated in the paper.
enum class ServerConfig {
  kIndep,     // independent servers, round-robin DNS, no front-end
  kFeXIndep,  // independent servers behind a front-end + extra node
  kCoop,      // base cooperative PRESS (internal heartbeat ring), no FE
  kFeX,       // cooperative PRESS + front-end + extra node
  kMem,       // FE-X + robust external membership service
  kQmon,      // FE-X + application-level queue monitoring (no membership)
  kMq,        // FE-X + membership + queue monitoring
  kFme,       // MQ + per-node Fault Model Enforcement daemons
};

const char* to_string(ServerConfig config);

struct TestbedOptions {
  ServerConfig config = ServerConfig::kCoop;
  /// Base back-end count; FE configurations add one extra node.
  int base_nodes = 4;
  int client_hosts = 4;
  std::uint64_t seed = 1;
  /// Total offered load (req/s) across all clients; the paper drives every
  /// version with the same load, 90% of the 4-node COOP saturation.
  double offered_rps = 1500.0;
  sim::Time warmup = 300 * sim::kSecond;
  press::PressParams press;
  workload::FileSet files;
  /// Measured S-FME variant: global cooperation-set monitor active.
  bool with_sfme = false;
  /// Operator model: after every fault is repaired, if the service is
  /// still suboptimal (splintered, dead or wedged process) for this long,
  /// the operator resets the server processes.
  sim::Time operator_response = 600 * sim::kSecond;
  bool operator_enabled = true;
  /// Intensity knobs for the gray fault types (loss probability, flap duty
  /// cycle, slow factors).
  fault::GrayFaultParams gray;
  /// Swap every detector for its gray-fault-hardened variant: accrual
  /// heartbeats + 2PC retry in the membership daemon, service-age slow-peer
  /// rerouting in qmon, retrying pings in the FE monitor.
  bool hardened_detectors = false;
  /// Structured tracing + online invariant auditing (trace/auditor.hpp).
  /// `audit` attaches the auditor (and implies a tracer); `trace` attaches
  /// a tracer alone. AVAILSIM_AUDIT=1 in the environment force-enables the
  /// auditor for every Testbed; AVAILSIM_TRACE_DIR=<dir> additionally
  /// exports each run's retained trace as JSONL on teardown.
  bool audit = false;
  bool trace = false;
  std::uint32_t trace_mask = trace::kProtocolCategories;
  std::size_t trace_capacity = std::size_t{1} << 16;
  /// Suffix distinguishing per-replica trace files in campaign runs (kept
  /// deterministic under --jobs N by deriving it from the work item, never
  /// from wall-clock or scheduling order).
  std::string trace_label;
};

/// Table 1 fault load matching `options`' component counts: its back-end
/// nodes, the extra node of a front-end configuration, and their disks.
std::vector<fault::FaultSpec> fault_load(const TestbedOptions& options);

/// One fully wired instance of the paper's experimental environment: the
/// intra-cluster and client fabrics, hosts, disks, PRESS processes, the
/// configured HA subsystems, the client fleet, the measurement recorder,
/// and the fault-injection hooks (fault::FaultTarget).
class Testbed : public fault::FaultTarget {
 public:
  struct LogEvent {
    sim::Time at;
    std::string what;
    net::NodeId node;
  };

  Testbed(sim::Simulator& simulator, TestbedOptions options);
  ~Testbed() override;

  /// Boots daemons and server processes (staggered) and starts the client
  /// fleet with a warm-up ramp.
  void start();

  /// --- fault::FaultTarget ---
  void inject(fault::FaultType type, int component) override;
  void repair(fault::FaultType type, int component) override;

  /// harness::fault_load of this testbed's options.
  std::vector<fault::FaultSpec> fault_load() const;

  /// --- introspection ---
  int server_count() const { return static_cast<int>(servers_.size()); }
  press::PressNode& server(int i) { return *servers_[i].press; }
  const press::PressNode& server(int i) const { return *servers_[i].press; }
  disk::Disk& disk(int global_index);
  net::Host& server_host(int i) { return *servers_[i].host; }
  frontend::Frontend* front_end() { return frontend_.get(); }
  frontend::Monitor* monitor() { return monitor_.get(); }
  membership::MemberServer* member_server(int i);
  fme::FmeDaemon* fme_daemon(int i);
  fme::SfmeMonitor* sfme() { return sfme_.get(); }
  workload::Recorder& recorder() { return *recorder_; }
  trace::Tracer* tracer() { return tracer_.get(); }
  trace::Auditor* auditor() { return auditor_.get(); }
  net::Network& cluster_net() { return *cluster_net_; }
  net::Network& client_net() { return *client_net_; }
  double offered_rps() const { return opts_.offered_rps; }
  const TestbedOptions& options() const { return opts_; }

  /// True when every process is up and (for cooperative configs) all live
  /// servers agree on one full cooperation set. Otherwise, with no fault
  /// active, the service needs operator attention.
  bool healthy() const;
  bool splintered() const;

  /// Rolling restart of all server processes (the operator's reset).
  void operator_reset();

  const std::vector<LogEvent>& log() const { return log_; }
  void note(std::string what, net::NodeId node = net::kNoNode);
  int active_faults() const { return active_fault_count_; }

 private:
  struct Server {
    std::unique_ptr<net::Host> host;
    std::vector<std::unique_ptr<disk::Disk>> disks;
    std::unique_ptr<press::PressNode> press;
    std::unique_ptr<membership::MembershipBoard> board;
    std::unique_ptr<membership::MemberServer> member;
    std::unique_ptr<membership::MembershipClient> mclient;
    std::unique_ptr<fme::FmeDaemon> fme;
    bool offline_by_enforcement = false;
  };

  bool has_frontend() const;
  bool cooperative() const;
  press::PressParams press_params_for_config() const;
  void build();
  void start_server_processes(int i, sim::Time delay,
                              bool prewarm = false);
  void restart_press(int i, bool prewarm = false);
  /// The server a fault hits, or nullptr for the switch and the front-end.
  Server* server_hit(fault::FaultType type, int component);
  /// Crashes the node's host and every process on it.
  void crash_node(Server& s);
  void take_node_offline(int i, const char* cause);
  void reboot_node(int i);
  bool node_fault_active(int i) const;
  void arm_offline_watcher();
  void arm_operator();
  bool fault_active(fault::FaultType type, int component) const;
  void setup_tracing();
  void arm_audit_tick();

  sim::Simulator& sim_;
  TestbedOptions opts_;
  sim::Rng rng_;

  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<trace::Auditor> auditor_;
  std::string trace_export_dir_;

  std::unique_ptr<net::Network> cluster_net_;
  std::unique_ptr<net::Network> client_net_;
  std::vector<Server> servers_;
  std::unique_ptr<net::Host> fe_host_;
  std::unique_ptr<frontend::Frontend> frontend_;
  std::unique_ptr<frontend::Monitor> monitor_;
  std::unique_ptr<fme::SfmeMonitor> sfme_;
  std::vector<std::unique_ptr<net::Host>> client_hosts_;
  std::vector<std::unique_ptr<workload::Client>> clients_;
  std::unique_ptr<workload::Popularity> popularity_;
  std::unique_ptr<workload::Recorder> recorder_;

  std::vector<LogEvent> log_;
  std::vector<std::pair<fault::FaultType, int>> active_faults_;
  int active_fault_count_ = 0;
  sim::Time suboptimal_since_ = -1;
};

}  // namespace availsim::harness
