#include "availsim/fme/sfme.hpp"

#include <algorithm>

namespace availsim::fme {

SfmeMonitor::SfmeMonitor(sim::Simulator& simulator, SfmeParams params)
    : sim_(simulator), p_(params) {}

void SfmeMonitor::set_nodes(std::vector<NodeInfo> nodes) {
  nodes_ = std::move(nodes);
  isolation_count_.assign(nodes_.size(), 0);
}

void SfmeMonitor::start() {
  ++epoch_;
  running_ = true;
  std::fill(isolation_count_.begin(), isolation_count_.end(), 0);
  arm();
}

void SfmeMonitor::stop() {
  ++epoch_;
  running_ = false;
}

void SfmeMonitor::arm() {
  sim_.schedule_after(p_.period, [this, e = epoch_] {
    if (epoch_ != e || !running_) return;
    run_cycle();
    arm();
  });
}

void SfmeMonitor::run_cycle() {
  // The reference view is the largest group any live daemon publishes.
  const membership::MembershipBoard* largest = nullptr;
  for (const auto& n : nodes_) {
    if (n.host->state() != net::Host::State::kUp) continue;
    if (!largest || n.board->members().size() > largest->members().size()) {
      largest = n.board;
    }
  }
  if (!largest || largest->members().size() < 2) return;

  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& n = nodes_[i];
    if (n.host->state() != net::Host::State::kUp) {
      isolation_count_[i] = 0;
      continue;
    }
    const bool isolated = !largest->contains(n.id);
    if (!isolated) {
      isolation_count_[i] = 0;
      continue;
    }
    if (++isolation_count_[i] < p_.confirm) continue;
    isolation_count_[i] = 0;
    ++offline_actions_;
    if (on_marker) on_marker("sfme_offline", n.id);
    if (take_node_offline) take_node_offline(n.id);
  }
}

}  // namespace availsim::fme
