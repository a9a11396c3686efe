#include "availsim/membership/client_lib.hpp"

#include <utility>

namespace availsim::membership {

MembershipClient::MembershipClient(sim::Simulator& simulator,
                                   const MembershipBoard& board,
                                   sim::Time poll_period)
    : sim_(simulator), board_(board), poll_period_(poll_period) {}

void MembershipClient::start() {
  ++epoch_;
  running_ = true;
  seen_version_ = 0;  // force a full diff on the first poll
  seen_members_.clear();
  poll();
  arm();
}

void MembershipClient::stop() {
  ++epoch_;
  running_ = false;
  seen_members_.clear();
}

void MembershipClient::arm() {
  sim_.schedule_after(poll_period_, [this, e = epoch_] {
    if (epoch_ != e || !running_) return;
    poll();
    arm();
  });
}

void MembershipClient::poll() {
  if (board_.version() == seen_version_ && seen_version_ != 0) return;
  seen_version_ = board_.version();
  // A copy: a callback can publish a new view (through a NodeDown report).
  sim::NodeSet current = board_.members();
  for (net::NodeId n : current) {
    if (!seen_members_.contains(n) && on_node_in) on_node_in(n);
  }
  for (net::NodeId n : seen_members_) {
    if (!current.contains(n) && on_node_out) on_node_out(n);
  }
  seen_members_ = std::move(current);
}

void MembershipClient::node_down(net::NodeId node) {
  if (report_down) report_down(node);
}

}  // namespace availsim::membership
