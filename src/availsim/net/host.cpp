#include "availsim/net/host.hpp"

#include <cassert>
#include <utility>

namespace availsim::net {

Host::Host(sim::Simulator& simulator, NodeId id, std::string name)
    : sim_(simulator), id_(id), name_(std::move(name)) {}

void Host::bind(int port, Handler handler) {
  assert(port >= 0);
  const auto p = static_cast<std::size_t>(port);
  if (p >= ports_.size()) ports_.resize(p + 1);
  ports_[p] = std::move(handler);
}

void Host::unbind(int port) {
  if (has_port(port)) ports_[static_cast<std::size_t>(port)] = nullptr;
}

bool Host::has_port(int port) const {
  return port >= 0 && static_cast<std::size_t>(port) < ports_.size() &&
         ports_[static_cast<std::size_t>(port)] != nullptr;
}

bool Host::deliver(const Packet& packet) {
  switch (state_) {
    case State::kDown:
      return false;
    case State::kFrozen:
      // Kernel buffers are finite: a long freeze sheds excess traffic.
      if (parked_.size() >= kParkedCapacity) return true;
      parked_.push_back(packet);
      return true;  // buffered, not refused
    case State::kUp:
      break;
  }
  if (!has_port(packet.port)) return false;
  ports_[static_cast<std::size_t>(packet.port)](packet);
  return true;
}

void Host::freeze() {
  if (state_ == State::kUp) state_ = State::kFrozen;
}

void Host::unfreeze() {
  if (state_ != State::kFrozen) return;
  state_ = State::kUp;
  // Flush parked packets in arrival order. Handlers run from a fresh event
  // so that a handler freezing the host again re-parks the remainder.
  std::deque<Packet> taken = std::move(parked_);
  parked_.clear();
  sim_.schedule_after(0, [this, backlog = std::move(taken)]() mutable {
    while (!backlog.empty()) {
      if (state_ != State::kUp) {
        // Re-park whatever is left.
        for (auto& p : backlog) parked_.push_back(std::move(p));
        return;
      }
      Packet p = std::move(backlog.front());
      backlog.pop_front();
      deliver(p);
    }
  });
}

void Host::crash() {
  state_ = State::kDown;
  parked_.clear();
  for (Handler& h : ports_) h = nullptr;
}

void Host::reboot() {
  if (state_ == State::kDown) state_ = State::kUp;
}

}  // namespace availsim::net
