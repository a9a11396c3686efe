#include "availsim/fme/fme.hpp"

#include <utility>

#include "availsim/trace/trace.hpp"
#include "availsim/workload/http.hpp"

namespace availsim::fme {

FmeDaemon::FmeDaemon(sim::Simulator& simulator, net::Network& client_net,
                     net::Host& host, sim::Rng rng, FmeParams params,
                     std::vector<disk::Disk*> disks,
                     workload::FileId probe_file)
    : sim_(simulator),
      net_(client_net),
      host_(host),
      rng_(std::move(rng)),
      p_(params),
      disks_(std::move(disks)),
      probe_file_(probe_file) {}

void FmeDaemon::start() {
  if (!host_ok()) return;
  ++epoch_;
  running_ = true;
  consecutive_failures_ = 0;
  awaiting_probe_ = 0;
  last_restart_ = -1;
  host_.bind(net::ports::kFme, [this](const net::Packet& packet) {
    const auto& reply = net::body_as<workload::HttpReply>(packet);
    if (reply.request_id == awaiting_probe_ && awaiting_probe_ != 0) {
      awaiting_probe_ = 0;
      on_probe_result(true);
    }
  });
  arm();
  trace::emit(sim_, trace::Category::kFme, trace::Kind::kFmeStart,
              host_.id());
}

void FmeDaemon::on_host_crashed() {
  ++epoch_;
  running_ = false;
}

void FmeDaemon::arm() {
  sim_.schedule_after(p_.probe_period, [this, e = epoch_] {
    if (epoch_ != e || !running_) return;
    if (host_ok()) run_cycle();
    arm();
  });
}

void FmeDaemon::run_cycle() {
  ++stats_.probes;
  // HTTP probe to the local application (loopback; a wedged or hung server
  // never answers, a crashed one refuses).
  const std::uint64_t id = next_probe_id_++;
  awaiting_probe_ = id;
  workload::HttpRequest probe;
  probe.file = probe_file_;
  probe.client = host_.id();
  probe.request_id = id;
  probe.reply_port = net::ports::kFme;
  probe.sent_at = sim_.now();
  net::SendOptions options;
  options.reliable = true;
  options.on_refused = [this, e = epoch_, id] {
    if (epoch_ != e || !running_) return;
    if (awaiting_probe_ == id) {
      awaiting_probe_ = 0;
      on_probe_result(false);
    }
  };
  net_.send(host_.id(), host_.id(), net::ports::kPressHttp,
            workload::kHttpRequestBytes,
            net::make_body<workload::HttpRequest>(probe), std::move(options));
  sim_.schedule_after(p_.probe_timeout, [this, e = epoch_, id] {
    if (epoch_ != e || !running_) return;
    if (awaiting_probe_ == id) {
      awaiting_probe_ = 0;
      on_probe_result(false);
    }
  });
}

bool FmeDaemon::disk_faulty() const {
  for (const auto* d : disks_) {
    if (d->state() != disk::Disk::State::kOk) return true;
  }
  return false;
}

void FmeDaemon::on_probe_result(bool ok) {
  if (ok) {
    consecutive_failures_ = 0;
    trace::emit(sim_, trace::Category::kFme, trace::Kind::kFmeProbeOk,
                host_.id());
    return;
  }
  ++stats_.probe_failures;
  trace::emit(sim_, trace::Category::kFme, trace::Kind::kFmeProbeFail,
              host_.id());
  if (++consecutive_failures_ < p_.confirm) return;

  if (disk_faulty()) {
    // Unmodeled fault (SCSI timeout wedging the server) -> modeled fault
    // (node crash): take the node offline for repair.
    ++stats_.offline_actions;
    trace::emit(sim_, trace::Category::kFme, trace::Kind::kFmeOffline,
                host_.id());
    if (on_marker) on_marker("fme_offline", host_.id());
    if (take_node_offline) take_node_offline();
    return;
  }
  // Application hang/crash with healthy disks -> crash-restart sequence.
  if (last_restart_ >= 0 && sim_.now() - last_restart_ < p_.restart_cooldown) {
    return;
  }
  last_restart_ = sim_.now();
  consecutive_failures_ = 0;
  ++stats_.restart_actions;
  trace::emit(sim_, trace::Category::kFme, trace::Kind::kFmeRestart,
              host_.id());
  if (on_marker) on_marker("fme_restart", host_.id());
  if (restart_application) restart_application();
}

}  // namespace availsim::fme
