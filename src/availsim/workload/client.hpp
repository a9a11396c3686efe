#pragma once

#include <cstdint>
#include <vector>

#include "availsim/net/network.hpp"
#include "availsim/sim/id_ring.hpp"
#include "availsim/sim/rng.hpp"
#include "availsim/workload/http.hpp"
#include "availsim/workload/recorder.hpp"
#include "availsim/workload/popularity.hpp"
#include "availsim/workload/trace.hpp"

namespace availsim::workload {

/// An open-loop HTTP client: requests arrive regardless of server state,
/// each request timing out after 2 s if the connection cannot be
/// established and after 6 s if, once connected, it is not completed
/// (paper §5).
///
/// Arrivals come from one of two sources: a Poisson process with a fixed
/// average rate, files drawn from a popularity model, or the replay of a
/// recorded trace. Everything after the arrival is the same request
/// lifecycle.
///
/// Destination selection models round-robin DNS (rotating over the server
/// list, oblivious to failures) or a front-end VIP (single destination).
class Client {
 public:
  struct Params {
    double rate = 100.0;  // requests/second from this client host
    sim::Time connect_timeout = 2 * sim::kSecond;
    sim::Time completion_timeout = 6 * sim::kSecond;
    /// Linear warm-up: the offered rate ramps from ~0 to `rate` over this
    /// period (the paper warms the server to peak over 5 minutes).
    sim::Time ramp = 0;
  };

  /// Trace replay: each entry is sent at its recorded offset from start(),
  /// divided by `speedup` (2.0 = replay twice as fast). With `loop` the
  /// trace starts over when it runs out, so long availability runs can use
  /// short traces.
  struct Replay {
    double speedup = 1.0;
    bool loop = true;
  };

  /// Poisson arrivals at `params.rate`, files drawn from `popularity`.
  Client(sim::Simulator& simulator, net::Network& client_net, net::Host& self,
         sim::Rng rng, Params params, const Popularity& popularity,
         Recorder& recorder);
  /// Replays `trace`, which must outlive the client, with the default
  /// timeouts.
  Client(sim::Simulator& simulator, net::Network& client_net, net::Host& self,
         const Trace& trace, Replay replay, Recorder& recorder);

  /// Servers (or the front-end VIP) this client rotates over.
  void set_destinations(std::vector<net::NodeId> destinations, int port);

  /// Starts arrivals (a replay starts at the trace's beginning). An empty
  /// trace does not start.
  void start();
  /// Stops arrivals; the pending arrival is dropped, so a start() right
  /// after it runs one arrival stream, not two.
  void stop();

  std::size_t outstanding() const { return pending_.size(); }
  std::uint64_t requests_sent() const { return pending_.end_id(); }

 private:
  struct Pending {
    sim::Time sent = 0;
    net::NodeId dst = net::kNoNode;
  };

  /// Schedules the next arrival from the Poisson law or the trace cursor.
  void schedule_next_arrival();
  void send_request(FileId file);
  void on_reply(const net::Packet& packet);
  void fail(std::uint64_t request_id, FailureReason reason);
  /// Deadline walks. The timeouts are fixed, so deadlines come in id
  /// order, and each kind keeps at most one armed event aimed at its
  /// earliest open deadline: the connect walk at the cursor, the completion
  /// walk at the ring's front. A walk fails or checks every open request
  /// now due, in id order, then re-arms for the next one.
  void on_connect_deadline();
  void on_completion_deadline();
  void arm_connect_deadline();
  void arm_completion_deadline();

  sim::Simulator& sim_;
  net::Network& net_;
  net::Host& self_;
  sim::Rng rng_;
  Params params_;
  const Popularity* popularity_ = nullptr;  // Poisson arrivals
  const Trace* trace_ = nullptr;            // trace replay
  Replay replay_;
  std::size_t cursor_ = 0;     // next trace entry
  sim::Time loop_start_ = 0;   // when the current pass over the trace began
  Recorder& recorder_;
  std::vector<net::NodeId> destinations_;
  int dst_port_ = net::ports::kPressHttp;
  std::size_t rr_ = 0;
  bool running_ = false;
  /// Bumped by start() and stop(): an arrival scheduled under an older
  /// epoch does nothing.
  std::uint64_t epoch_ = 0;
  // Open requests by id; ids are handed out in order from 0, so the next
  // one is pending_.end_id(). A request leaves the ring when it is replied
  // to or fails; the deadline walks step over the ids already gone, so
  // closing a request never touches the event queue.
  sim::IdRing<Pending> pending_;
  // Requests below this id are connect-checked or closed.
  std::uint64_t connect_next_ = 0;
  bool connect_armed_ = false;
  bool completion_armed_ = false;
};

}  // namespace availsim::workload
