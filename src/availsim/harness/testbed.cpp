#include "availsim/harness/testbed.hpp"

#include <cassert>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>

#include "availsim/sim/node_set.hpp"

namespace availsim::harness {

namespace {
constexpr sim::Time kProcessStagger = 2 * sim::kSecond;
constexpr sim::Time kRebootDelay = 20 * sim::kSecond;
constexpr sim::Time kAppRestartDelay = 5 * sim::kSecond;
constexpr sim::Time kOfflineWatchPeriod = 10 * sim::kSecond;
constexpr sim::Time kOperatorCheckPeriod = 30 * sim::kSecond;
constexpr sim::Time kAuditTickPeriod = 30 * sim::kSecond;
// Popularity (DESIGN.md §4b): 80% of requests over the 8,000 hottest files,
// the rest uniform over the tail.
constexpr int kHotFiles = 8000;
constexpr double kHotWeight = 0.80;

bool with_frontend(ServerConfig config) {
  return config != ServerConfig::kIndep && config != ServerConfig::kCoop;
}

bool env_truthy(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}
}  // namespace

const char* to_string(ServerConfig config) {
  switch (config) {
    case ServerConfig::kIndep: return "INDEP";
    case ServerConfig::kFeXIndep: return "FE-X-INDEP";
    case ServerConfig::kCoop: return "COOP";
    case ServerConfig::kFeX: return "FE-X";
    case ServerConfig::kMem: return "MEM";
    case ServerConfig::kQmon: return "Q-MON";
    case ServerConfig::kMq: return "MQ";
    case ServerConfig::kFme: return "FME";
  }
  return "?";
}

bool Testbed::has_frontend() const { return with_frontend(opts_.config); }

bool Testbed::cooperative() const {
  return opts_.config != ServerConfig::kIndep &&
         opts_.config != ServerConfig::kFeXIndep;
}

press::PressParams Testbed::press_params_for_config() const {
  press::PressParams p = opts_.press;
  p.cooperative = cooperative();
  switch (opts_.config) {
    case ServerConfig::kIndep:
    case ServerConfig::kFeXIndep:
      p.membership = press::PressParams::Membership::kNone;
      p.qmon.enabled = false;
      break;
    case ServerConfig::kCoop:
    case ServerConfig::kFeX:
      p.membership = press::PressParams::Membership::kInternalRing;
      p.qmon.enabled = false;
      break;
    case ServerConfig::kMem:
      p.membership = press::PressParams::Membership::kExternal;
      p.qmon.enabled = false;
      break;
    case ServerConfig::kQmon:
      p.membership = press::PressParams::Membership::kNone;
      p.qmon.enabled = true;
      break;
    case ServerConfig::kMq:
    case ServerConfig::kFme:
      p.membership = press::PressParams::Membership::kExternal;
      p.qmon.enabled = true;
      break;
  }
  if (opts_.hardened_detectors) {
    // Slow-peer detection: only meaningful where qmon is on.
    p.qmon.slow_peer_age = 1500 * sim::kMillisecond;
  }
  return p;
}

Testbed::Testbed(sim::Simulator& simulator, TestbedOptions options)
    : sim_(simulator), opts_(options), rng_(options.seed) {
  setup_tracing();
  build();
}

Testbed::~Testbed() {
  if (tracer_ && !trace_export_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(trace_export_dir_, ec);
    const std::string path = trace_export_dir_ + "/availtrace-" +
                             to_string(opts_.config) + "-s" +
                             std::to_string(opts_.seed) + opts_.trace_label +
                             ".jsonl";
    std::ofstream out(path);
    if (out) tracer_->export_jsonl(out);
  }
  // The Simulator outlives this Testbed in most tests; detach before the
  // tracer is destroyed so late events cannot emit into freed memory.
  if (tracer_ && sim_.tracer() == tracer_.get()) sim_.set_tracer(nullptr);
}

void Testbed::setup_tracing() {
  const bool audit_on = opts_.audit || env_truthy("AVAILSIM_AUDIT");
  if (const char* dir = std::getenv("AVAILSIM_TRACE_DIR");
      dir != nullptr && dir[0] != '\0') {
    trace_export_dir_ = dir;
  }
  if (!audit_on && !opts_.trace && trace_export_dir_.empty()) return;

  trace::TracerOptions topts;
  topts.mask = opts_.trace_mask;
  topts.capacity = opts_.trace_capacity;
  tracer_ = std::make_unique<trace::Tracer>(topts);
  sim_.set_tracer(tracer_.get());

  if (!audit_on) return;
  const press::PressParams p = press_params_for_config();
  trace::AuditorConfig cfg;
  if (p.membership == press::PressParams::Membership::kInternalRing) {
    cfg.hb_deadline = p.heartbeat_tolerance * p.heartbeat_period +
                      p.heartbeat_period / 2;
  }
  cfg.qmon_enabled = p.qmon.enabled;
  cfg.reroute_requests = static_cast<std::int64_t>(p.qmon.reroute_requests);
  cfg.fail_requests = static_cast<std::int64_t>(p.qmon.fail_requests);
  cfg.fail_total = static_cast<std::int64_t>(p.qmon.fail_total);
  const fme::FmeParams fme_defaults;
  cfg.fme_confirm = fme_defaults.confirm;
  cfg.fme_restart_cooldown = fme_defaults.restart_cooldown;
  auditor_ = std::make_unique<trace::Auditor>(*tracer_, cfg);
}

void Testbed::arm_audit_tick() {
  sim_.schedule_after(kAuditTickPeriod, [this] {
    // Observationally neutral: the tick only feeds the auditor a marker to
    // run its quiescence checks on — no testbed or RNG state is touched, so
    // availability results are identical with auditing on or off.
    trace::emit(sim_, trace::Category::kHarness, trace::Kind::kAuditTick, -1);
    arm_audit_tick();
  });
}

void Testbed::build() {
  net::NetworkParams cluster_params;
  cluster_params.name = "cluster";
  cluster_params.base_latency = 80 * sim::kMicrosecond;
  cluster_params.bandwidth_bps = 1e9;  // cLAN VIA-class fabric
  net::NetworkParams client_params;
  client_params.name = "client";
  client_params.base_latency = 250 * sim::kMicrosecond;
  client_params.bandwidth_bps = 1e9;
  cluster_net_ = std::make_unique<net::Network>(sim_, rng_.fork(1),
                                                cluster_params);
  client_net_ = std::make_unique<net::Network>(sim_, rng_.fork(2),
                                               client_params);

  const int n_servers = opts_.base_nodes + (has_frontend() ? 1 : 0);
  const bool external_membership =
      opts_.config == ServerConfig::kMem || opts_.config == ServerConfig::kMq ||
      opts_.config == ServerConfig::kFme;

  std::vector<net::NodeId> server_ids;
  for (int i = 0; i < n_servers; ++i) server_ids.push_back(i);

  const press::PressParams press_params = press_params_for_config();

  for (int i = 0; i < n_servers; ++i) {
    Server s;
    s.host = std::make_unique<net::Host>(sim_, i, "node" + std::to_string(i));
    cluster_net_->attach(*s.host);
    client_net_->attach(*s.host);
    for (int d = 0; d < press_params.disk_count; ++d) {
      s.disks.push_back(std::make_unique<disk::Disk>(sim_, press_params.disk));
      s.disks.back()->set_trace_identity(i, d);
    }
    std::vector<disk::Disk*> disk_ptrs;
    for (auto& d : s.disks) disk_ptrs.push_back(d.get());

    s.press = std::make_unique<press::PressNode>(
        sim_, *cluster_net_, *client_net_, *s.host,
        rng_.fork(100 + static_cast<std::uint64_t>(i)), press_params,
        opts_.files, server_ids, disk_ptrs);
    s.press->on_marker = [this, i](const char* m, net::NodeId about) {
      note(m, about == net::kNoNode ? i : about);
    };

    if (external_membership) {
      s.board = std::make_unique<membership::MembershipBoard>();
      membership::MemberServerParams mem_params;
      mem_params.hardened = opts_.hardened_detectors;
      s.member = std::make_unique<membership::MemberServer>(
          sim_, *cluster_net_, *s.host,
          rng_.fork(200 + static_cast<std::uint64_t>(i)),
          mem_params, *s.board);
      s.member->on_marker = [this, i](const char* m, net::NodeId about) {
        note(std::string("mem_") + m, about == net::kNoNode ? i : about);
      };
      s.mclient = std::make_unique<membership::MembershipClient>(sim_, *s.board);
      press::PressNode* press = s.press.get();
      s.mclient->on_node_in = [press](net::NodeId n) { press->node_in(n); };
      s.mclient->on_node_out = [press](net::NodeId n) { press->node_out(n); };
      membership::MemberServer* member = s.member.get();
      s.mclient->report_down = [member](net::NodeId n) {
        member->node_down_report(n);
      };
      membership::MembershipClient* mclient = s.mclient.get();
      s.press->report_node_down = [mclient](net::NodeId n) {
        mclient->node_down(n);
      };
    }

    if (opts_.config == ServerConfig::kFme) {
      s.fme = std::make_unique<fme::FmeDaemon>(
          sim_, *client_net_, *s.host,
          rng_.fork(300 + static_cast<std::uint64_t>(i)), fme::FmeParams{},
          disk_ptrs);
      s.fme->on_marker = [this](const char* m, net::NodeId about) {
        note(m, about);
      };
      s.fme->take_node_offline = [this, i] { take_node_offline(i, "fme"); };
      s.fme->restart_application = [this, i] {
        servers_[static_cast<std::size_t>(i)].press->crash_process();
        note("fme_kill", i);
        sim_.schedule_after(kAppRestartDelay, [this, i] {
          if (!fault_active(fault::FaultType::kAppCrash, i)) restart_press(i);
        });
      };
    }
    servers_.push_back(std::move(s));
  }

  net::NodeId next_id = n_servers;
  if (has_frontend()) {
    fe_host_ = std::make_unique<net::Host>(sim_, next_id++, "frontend");
    cluster_net_->attach(*fe_host_);
    client_net_->attach(*fe_host_);
    frontend_ = std::make_unique<frontend::Frontend>(
        sim_, *client_net_, *fe_host_, frontend::FrontendParams{});
    frontend_->set_backends(server_ids);
    frontend::MonitorParams mon_params;
    if (opts_.hardened_detectors) mon_params.ping_retries = 2;
    monitor_ = std::make_unique<frontend::Monitor>(
        sim_, *client_net_, *fe_host_, rng_.fork(400), mon_params);
    monitor_->set_targets(server_ids);
    monitor_->on_status = [this](net::NodeId node, bool up) {
      frontend_->set_backend_alive(node, up);
      note(up ? "fe_unmask" : "fe_mask", node);
    };
  }

  if (opts_.with_sfme) {
    sfme_ = std::make_unique<fme::SfmeMonitor>(sim_, fme::SfmeParams{});
    std::vector<fme::SfmeMonitor::NodeInfo> infos;
    for (int i = 0; i < n_servers; ++i) {
      const auto& s = servers_[static_cast<std::size_t>(i)];
      if (!s.board) continue;  // S-FME needs membership boards
      infos.push_back({i, s.board.get(), s.host.get()});
    }
    sfme_->set_nodes(std::move(infos));
    sfme_->take_node_offline = [this](net::NodeId n) {
      take_node_offline(n, "sfme");
    };
    sfme_->on_marker = [this](const char* m, net::NodeId about) {
      note(m, about);
    };
  }

  recorder_ = std::make_unique<workload::Recorder>(sim_);
  popularity_ = std::make_unique<workload::HotColdSampler>(
      opts_.files.count, kHotFiles, kHotWeight);
  std::vector<net::NodeId> destinations;
  int dst_port;
  if (has_frontend()) {
    destinations = {fe_host_->id()};
    dst_port = net::ports::kFrontend;
  } else {
    destinations = server_ids;
    dst_port = net::ports::kPressHttp;
  }
  for (int c = 0; c < opts_.client_hosts; ++c) {
    auto host = std::make_unique<net::Host>(sim_, next_id++,
                                            "client" + std::to_string(c));
    client_net_->attach(*host);
    workload::Client::Params cp;
    cp.rate = opts_.offered_rps / opts_.client_hosts;
    cp.ramp = opts_.warmup;
    auto client = std::make_unique<workload::Client>(
        sim_, *client_net_, *host,
        rng_.fork(500 + static_cast<std::uint64_t>(c)), cp, *popularity_,
        *recorder_);
    client->set_destinations(destinations, dst_port);
    client_hosts_.push_back(std::move(host));
    clients_.push_back(std::move(client));
  }
}

void Testbed::start() {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    start_server_processes(static_cast<int>(i),
                           static_cast<sim::Time>(i) * kProcessStagger,
                           /*prewarm=*/true);
  }
  if (frontend_) {
    frontend_->start();
    monitor_->start();
  }
  if (sfme_) sfme_->start();
  for (auto& c : clients_) c->start();
  arm_offline_watcher();
  if (opts_.operator_enabled) arm_operator();
  trace::emit(sim_, trace::Category::kHarness, trace::Kind::kTestbedStart, -1);
  if (auditor_) arm_audit_tick();
  note("testbed_start");
}

void Testbed::start_server_processes(int i, sim::Time delay, bool prewarm) {
  sim_.schedule_after(delay, [this, i] {
    Server& s = servers_[static_cast<std::size_t>(i)];
    if (s.member) s.member->start();
    if (s.fme) s.fme->start();
  });
  sim_.schedule_after(delay + sim::kSecond,
                      [this, i, prewarm] { restart_press(i, prewarm); });
}

void Testbed::restart_press(int i, bool prewarm) {
  Server& s = servers_[static_cast<std::size_t>(i)];
  if (s.host->state() != net::Host::State::kUp) return;
  s.press->start(prewarm);
  if (s.mclient) s.mclient->start();
}

// ---------------------------------------------------------------------------
// Fault target
// ---------------------------------------------------------------------------

bool Testbed::fault_active(fault::FaultType type, int component) const {
  for (const auto& [t, c] : active_faults_) {
    if (t == type && c == component) return true;
  }
  return false;
}

Testbed::Server* Testbed::server_hit(fault::FaultType type, int component) {
  if (type == fault::FaultType::kSwitchDown ||
      type == fault::FaultType::kFrontendFailure) {
    return nullptr;
  }
  const bool disk_fault = type == fault::FaultType::kScsiTimeout ||
                          type == fault::FaultType::kDiskSlow;
  const int node = disk_fault ? component / opts_.press.disk_count : component;
  return &servers_[static_cast<std::size_t>(node)];
}

void Testbed::inject(fault::FaultType type, int component) {
  active_faults_.emplace_back(type, component);
  ++active_fault_count_;
  Server* s = server_hit(type, component);
  switch (type) {
    case fault::FaultType::kLinkDown:
      cluster_net_->set_link_up(component, false);
      break;
    case fault::FaultType::kSwitchDown:
      cluster_net_->set_switch_up(false);
      break;
    case fault::FaultType::kScsiTimeout:
      disk(component).fail_timeout();
      break;
    case fault::FaultType::kNodeCrash:
      crash_node(*s);
      break;
    case fault::FaultType::kNodeFreeze:
      s->host->freeze();
      break;
    case fault::FaultType::kAppCrash:
      s->press->crash_process();
      if (s->mclient) s->mclient->stop();
      break;
    case fault::FaultType::kAppHang:
      s->press->hang_process();
      break;
    case fault::FaultType::kFrontendFailure:
      if (fe_host_) {
        fe_host_->crash();
        frontend_->on_host_crashed();
        monitor_->on_host_crashed();
      }
      break;
    case fault::FaultType::kLinkLossy:
      cluster_net_->set_link_quality(
          component, net::LinkQuality{opts_.gray.loss_probability,
                                      opts_.gray.extra_latency,
                                      opts_.gray.extra_jitter});
      break;
    case fault::FaultType::kLinkFlap:
      cluster_net_->start_link_flap(component, opts_.gray.flap_down_time,
                                    opts_.gray.flap_up_time);
      break;
    case fault::FaultType::kNodeSlow:
      s->host->set_slow_factor(opts_.gray.node_slow_factor);
      break;
    case fault::FaultType::kDiskSlow:
      disk(component).degrade(opts_.gray.disk_slow_factor);
      break;
  }
}

void Testbed::repair(fault::FaultType type, int component) {
  std::erase(active_faults_, std::make_pair(type, component));
  --active_fault_count_;
  Server* s = server_hit(type, component);
  switch (type) {
    case fault::FaultType::kLinkDown:
      cluster_net_->set_link_up(component, true);
      break;
    case fault::FaultType::kSwitchDown:
      cluster_net_->set_switch_up(true);
      break;
    case fault::FaultType::kScsiTimeout:
      disk(component).repair();
      break;
    case fault::FaultType::kNodeCrash:
      reboot_node(component);
      break;
    case fault::FaultType::kNodeFreeze:
      s->host->unfreeze();
      s->press->resume_after_thaw();
      break;
    case fault::FaultType::kAppCrash:
      // FME may have already restarted the process.
      if (!s->press->process_up()) restart_press(component);
      break;
    case fault::FaultType::kAppHang:
      s->press->unhang_process();  // no-op if FME converted it to a restart
      break;
    case fault::FaultType::kFrontendFailure:
      if (fe_host_) {
        fe_host_->reboot();
        frontend_->on_host_rebooted();
        monitor_->on_host_rebooted();
      }
      break;
    case fault::FaultType::kLinkLossy:
      cluster_net_->clear_link_quality(component);
      break;
    case fault::FaultType::kLinkFlap:
      cluster_net_->stop_link_flap(component);
      break;
    case fault::FaultType::kNodeSlow:
      s->host->set_slow_factor(1.0);
      break;
    case fault::FaultType::kDiskSlow:
      // Only clear the degradation; a concurrent SCSI timeout (which made
      // degrade() a no-op) has its own repair.
      if (disk(component).state() == disk::Disk::State::kDegraded) {
        disk(component).repair();
      }
      break;
  }
}

disk::Disk& Testbed::disk(int global_index) {
  const int per_node = opts_.press.disk_count;
  return *servers_[static_cast<std::size_t>(global_index / per_node)]
              .disks[static_cast<std::size_t>(global_index % per_node)];
}

membership::MemberServer* Testbed::member_server(int i) {
  return servers_[static_cast<std::size_t>(i)].member.get();
}

fme::FmeDaemon* Testbed::fme_daemon(int i) {
  return servers_[static_cast<std::size_t>(i)].fme.get();
}

std::vector<fault::FaultSpec> fault_load(const TestbedOptions& options) {
  const bool frontend = with_frontend(options.config);
  return fault::table1_fault_load(options.base_nodes + (frontend ? 1 : 0),
                                  options.press.disk_count, frontend);
}

std::vector<fault::FaultSpec> Testbed::fault_load() const {
  return harness::fault_load(opts_);
}

// ---------------------------------------------------------------------------
// Enforcement actions (FME / S-FME) and the repair crew
// ---------------------------------------------------------------------------

void Testbed::crash_node(Server& s) {
  s.host->crash();
  s.press->on_host_crashed();
  if (s.member) s.member->on_host_crashed();
  if (s.mclient) s.mclient->stop();
  if (s.fme) s.fme->on_host_crashed();
}

void Testbed::take_node_offline(int i, const char* cause) {
  Server& s = servers_[static_cast<std::size_t>(i)];
  if (s.host->state() == net::Host::State::kDown) return;
  s.offline_by_enforcement = true;
  note(std::string(cause) + "_node_offline", i);
  crash_node(s);
}

bool Testbed::node_fault_active(int i) const {
  if (fault_active(fault::FaultType::kNodeCrash, i)) return true;
  if (fault_active(fault::FaultType::kNodeFreeze, i)) return true;
  if (fault_active(fault::FaultType::kLinkDown, i)) return true;
  if (fault_active(fault::FaultType::kLinkLossy, i)) return true;
  if (fault_active(fault::FaultType::kLinkFlap, i)) return true;
  if (fault_active(fault::FaultType::kNodeSlow, i)) return true;
  const int per_node = opts_.press.disk_count;
  for (int d = 0; d < per_node; ++d) {
    if (fault_active(fault::FaultType::kScsiTimeout, i * per_node + d) ||
        fault_active(fault::FaultType::kDiskSlow, i * per_node + d)) {
      return true;
    }
  }
  return false;
}

void Testbed::reboot_node(int i) {
  Server& s = servers_[static_cast<std::size_t>(i)];
  if (s.host->state() != net::Host::State::kDown) return;
  s.offline_by_enforcement = false;
  s.host->reboot();
  note("node_reboot", i);
  start_server_processes(i, sim::kSecond);
}

void Testbed::arm_offline_watcher() {
  sim_.schedule_after(kOfflineWatchPeriod, [this] {
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      Server& s = servers_[i];
      if (!s.offline_by_enforcement) continue;
      if (node_fault_active(static_cast<int>(i))) continue;
      // The underlying fault is repaired: the repair crew powers the node
      // back up after a short delay.
      const int node = static_cast<int>(i);
      s.offline_by_enforcement = false;
      sim_.schedule_after(kRebootDelay, [this, node] { reboot_node(node); });
    }
    arm_offline_watcher();
  });
}

// ---------------------------------------------------------------------------
// Health assessment & the operator model
// ---------------------------------------------------------------------------

bool Testbed::splintered() const {
  if (!cooperative()) return false;
  sim::NodeSet live;
  for (const auto& s : servers_) {
    if (s.host->state() == net::Host::State::kUp && s.press->process_up() &&
        !s.press->hung()) {
      live.insert(s.press->id());
    }
  }
  if (live.size() < 2) return false;
  for (const auto& s : servers_) {
    if (!live.contains(s.press->id())) continue;
    if (s.press->coop_set() != live) return true;
  }
  return false;
}

bool Testbed::healthy() const {
  for (const auto& s : servers_) {
    if (s.host->state() != net::Host::State::kUp) return false;
    if (!s.press->process_up() || s.press->hung() || s.press->blocked()) {
      return false;
    }
  }
  return !splintered();
}

void Testbed::arm_operator() {
  sim_.schedule_after(kOperatorCheckPeriod, [this] {
    if (active_fault_count_ > 0) {
      suboptimal_since_ = -1;  // wait for the repair crew first
    } else if (healthy()) {
      suboptimal_since_ = -1;
    } else {
      if (suboptimal_since_ < 0) suboptimal_since_ = sim_.now();
      if (sim_.now() - suboptimal_since_ >= opts_.operator_response) {
        suboptimal_since_ = -1;
        operator_reset();
      }
    }
    arm_operator();
  });
}

void Testbed::operator_reset() {
  trace::emit(sim_, trace::Category::kHarness, trace::Kind::kOperatorReset, -1);
  note("operator_reset");
  sim::Time delay = 0;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    Server& s = servers_[i];
    const int node = static_cast<int>(i);
    if (s.host->state() == net::Host::State::kDown) {
      sim_.schedule_after(delay, [this, node] { reboot_node(node); });
    } else {
      sim_.schedule_after(delay, [this, node] {
        Server& sv = servers_[static_cast<std::size_t>(node)];
        sv.press->crash_process();
        if (sv.mclient) sv.mclient->stop();
        restart_press(node);
      });
    }
    delay += kProcessStagger;
  }
  sim_.schedule_after(delay + 3 * sim::kSecond,
                      [this] { note("operator_done"); });
}

void Testbed::note(std::string what, net::NodeId node) {
  log_.push_back(LogEvent{sim_.now(), std::move(what), node});
}

}  // namespace harness
