#include "availsim/frontend/monitor.hpp"

#include <utility>

#include "availsim/trace/trace.hpp"

namespace availsim::frontend {

Monitor::Monitor(sim::Simulator& simulator, net::Network& client_net,
                 net::Host& fe_host, sim::Rng rng, MonitorParams params)
    : sim_(simulator),
      net_(client_net),
      host_(fe_host),
      rng_(std::move(rng)),
      p_(params) {}

void Monitor::set_targets(std::vector<net::NodeId> targets) {
  targets_ = std::move(targets);
}

void Monitor::start() {
  ++epoch_;
  running_ = true;
  state_.assign(state_.size(), State{});
  const sim::Time period = p_.mode == MonitorParams::Mode::kPing
                               ? p_.ping_period
                               : p_.tcp_period;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    const auto n = static_cast<std::size_t>(targets_[i]);
    if (n >= state_.size()) state_.resize(n + 1);
    // Stagger probes across the period so they don't fire in lock-step.
    const sim::Time offset =
        static_cast<sim::Time>(static_cast<double>(period) *
                               static_cast<double>(i) /
                               static_cast<double>(targets_.size()));
    arm(targets_[i], offset + period / 4);
  }
}

void Monitor::on_host_crashed() {
  ++epoch_;
  running_ = false;
}

void Monitor::on_host_rebooted() { start(); }

bool Monitor::is_up(net::NodeId node) const {
  const auto n = static_cast<std::size_t>(node);
  return node < 0 || n >= state_.size() || state_[n].up;
}

void Monitor::arm(net::NodeId target, sim::Time delay) {
  sim_.schedule_after(delay, [this, e = epoch_, target] {
    if (epoch_ != e || !running_) return;
    if (host_ok()) probe(target);
    arm(target, p_.mode == MonitorParams::Mode::kPing ? p_.ping_period
                                                      : p_.tcp_period);
  });
}

void Monitor::probe(net::NodeId target) {
  if (p_.mode == MonitorParams::Mode::kPing) {
    ping_attempt(target, 0);
  } else {
    record(target, tcp_connect_ok(target));
  }
}

void Monitor::ping_attempt(net::NodeId target, int attempt) {
  // Retries use a shorter timeout so the whole retry ladder still fits
  // well inside one probe period.
  const sim::Time timeout = attempt == 0 ? p_.ping_timeout : p_.retry_timeout;
  net_.ping(host_.id(), target, timeout,
            [this, e = epoch_, target, attempt](bool ok) {
              if (epoch_ != e || !running_) return;
              if (!ok && attempt < p_.ping_retries) {
                const sim::Time backoff = p_.retry_backoff << attempt;
                sim_.schedule_after(backoff, [this, e, target, attempt] {
                  if (epoch_ != e || !running_ || !host_ok()) return;
                  ping_attempt(target, attempt + 1);
                });
                return;
              }
              record(target, ok);
            });
}

bool Monitor::tcp_connect_ok(net::NodeId target) const {
  // A TCP connect succeeds iff the path is up, the host is running, and a
  // process is listening — the kernel accepts even if the application is
  // hung, which is why C-MON still cannot see application hangs.
  if (!net_.path_up(host_.id(), target)) return false;
  const net::Host& h = net_.host(target);
  if (h.state() != net::Host::State::kUp) return false;
  return h.has_port(net::ports::kPressHttp);
}

void Monitor::record(net::NodeId target, bool ok) {
  State& s = state_[static_cast<std::size_t>(target)];
  const int tolerance = p_.mode == MonitorParams::Mode::kPing
                            ? p_.ping_tolerance
                            : p_.tcp_tolerance;
  if (ok) {
    s.misses = 0;
    if (!s.up) {
      s.up = true;
      trace::emit(sim_, trace::Category::kFrontend, trace::Kind::kFeUnmask,
                  target);
      if (on_status) on_status(target, true);
    }
    return;
  }
  ++s.misses;
  if (s.up && s.misses >= tolerance) {
    s.up = false;
    trace::emit(sim_, trace::Category::kFrontend, trace::Kind::kFeMask,
                target);
    if (on_status) on_status(target, false);
  }
}

}  // namespace availsim::frontend
