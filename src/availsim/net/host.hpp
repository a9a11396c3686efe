#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "availsim/net/packet.hpp"
#include "availsim/sim/simulator.hpp"

namespace availsim::net {

/// A machine in the testbed. The host models the OS-level failure modes of
/// the paper's fault taxonomy: *node crash* (machine down, all process
/// state lost), *node freeze* (machine wedged: nothing is processed and
/// pings go unanswered until it thaws). Application-level failure modes
/// (process crash/hang) are modeled by the applications themselves by
/// unbinding ports or ignoring deliveries.
class Host {
 public:
  enum class State { kUp, kFrozen, kDown };

  /// Upper bound on packets parked while frozen (finite kernel buffers).
  static constexpr std::size_t kParkedCapacity = 4096;

  using Handler = std::function<void(const Packet&)>;

  Host(sim::Simulator& simulator, NodeId id, std::string name);

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  State state() const { return state_; }
  bool is_up() const { return state_ == State::kUp; }

  /// Gray fault: limping node. Every CPU service time of processes on this
  /// host is multiplied by the factor; the host still answers pings and its
  /// daemons still heartbeat — it is degraded, not down, which is exactly
  /// what naive up/down detectors cannot express.
  void set_slow_factor(double factor) { slow_factor_ = factor < 1 ? 1 : factor; }
  double slow_factor() const { return slow_factor_; }
  bool limping() const { return slow_factor_ > 1.0; }

  /// Registers `handler` for packets addressed to `port` (>= 0). Overwrites
  /// any previous binding (a restarted process re-binds its ports).
  void bind(int port, Handler handler);
  void unbind(int port);
  bool has_port(int port) const;

  /// Delivers a packet to the bound handler. If the host is frozen the
  /// packet parks and is flushed on thaw (TCP-buffer semantics); if the
  /// host is down, or no process owns the port, the packet is dropped and
  /// deliver() returns false (the reliable layer turns that into a reset
  /// notification for the sender).
  bool deliver(const Packet& packet);

  /// --- fault hooks (driven by the fault injector) ---

  /// Node freeze: stop processing; deliveries park.
  void freeze();

  /// Thaw from a freeze: parked deliveries flush in order.
  void unfreeze();

  /// Node crash: all parked traffic and port bindings are lost.
  void crash();

  /// Reboot after a crash: host is up, but processes must re-bind.
  void reboot();

 private:
  sim::Simulator& sim_;
  NodeId id_;
  std::string name_;
  State state_ = State::kUp;
  double slow_factor_ = 1.0;
  // By port; an empty handler is an unbound port. Only bind() grows the
  // table, and growing it moves every handler in it: a bind() from inside a
  // delivered packet's handler would move the running handler. None does
  // today: every bind() runs at process start or restart, from its own
  // event.
  std::vector<Handler> ports_;
  std::deque<Packet> parked_;
};

}  // namespace availsim::net
