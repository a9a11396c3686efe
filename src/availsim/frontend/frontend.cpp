#include "availsim/frontend/frontend.hpp"

#include <utility>

#include "availsim/workload/http.hpp"

namespace availsim::frontend {

Frontend::Frontend(sim::Simulator& simulator, net::Network& client_net,
                   net::Host& host, FrontendParams params)
    : sim_(simulator), net_(client_net), host_(host), p_(params) {}

void Frontend::set_backends(std::vector<net::NodeId> backends) {
  backends_ = std::move(backends);
  alive_ = {backends_.begin(), backends_.end()};
}

void Frontend::set_backend_alive(net::NodeId node, bool alive) {
  if (alive) {
    alive_.insert(node);
  } else {
    alive_.erase(node);
  }
}

void Frontend::start() {
  running_ = true;
  cpu_free_ = sim_.now();
  host_.bind(net::ports::kFrontend,
             [this](const net::Packet& p) { on_request(p); });
}

void Frontend::on_host_crashed() { running_ = false; }

void Frontend::on_host_rebooted() {
  // IP takeover / restart: assume everything is alive until Mon says
  // otherwise.
  alive_ = {backends_.begin(), backends_.end()};
  start();
}

void Frontend::on_request(const net::Packet& packet) {
  if (!running_) return;
  // Pick the next live backend round-robin; skip dead entries.
  net::NodeId target = net::kNoNode;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    net::NodeId candidate = backends_[rr_ % backends_.size()];
    ++rr_;
    if (alive_.contains(candidate)) {
      target = candidate;
      break;
    }
  }
  if (target == net::kNoNode) {
    ++dropped_;
    return;  // no live backend: the client will time out
  }
  ++forwarded_;
  cpu_free_ = std::max(sim_.now(), cpu_free_) + p_.cpu_forward;
  auto body = packet.body;
  const std::size_t bytes = packet.bytes;
  sim_.schedule_at(cpu_free_, [this, target, body, bytes] {
    if (!running_) return;
    net::SendOptions options;
    options.reliable = true;  // tunnel rides an established path
    net_.send(id(), target, net::ports::kPressHttp, bytes, body,
              std::move(options));
  });
}

}  // namespace availsim::frontend
