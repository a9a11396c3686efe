#include "availsim/workload/client.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "availsim/trace/trace.hpp"

namespace availsim::workload {

Client::Client(sim::Simulator& simulator, net::Network& client_net,
               net::Host& self, sim::Rng rng, Params params,
               const Popularity& popularity, Recorder& recorder)
    : sim_(simulator),
      net_(client_net),
      self_(self),
      rng_(std::move(rng)),
      params_(params),
      popularity_(&popularity),
      recorder_(recorder) {
  self_.bind(net::ports::kClientReply,
             [this](const net::Packet& p) { on_reply(p); });
}

Client::Client(sim::Simulator& simulator, net::Network& client_net,
               net::Host& self, const Trace& trace, Replay replay,
               Recorder& recorder)
    : sim_(simulator),
      net_(client_net),
      self_(self),
      rng_(0),  // unused: a replay draws nothing
      trace_(&trace),
      replay_(replay),
      recorder_(recorder) {
  self_.bind(net::ports::kClientReply,
             [this](const net::Packet& p) { on_reply(p); });
}

void Client::set_destinations(std::vector<net::NodeId> destinations,
                              int port) {
  assert(!destinations.empty());
  destinations_ = std::move(destinations);
  dst_port_ = port;
}

void Client::start() {
  if (running_ || (trace_ != nullptr && trace_->size() == 0)) return;
  running_ = true;
  ++epoch_;
  cursor_ = 0;
  loop_start_ = sim_.now();
  schedule_next_arrival();
}

void Client::stop() {
  running_ = false;
  ++epoch_;
}

void Client::schedule_next_arrival() {
  sim::Time at = 0;
  if (trace_ == nullptr) {
    double rate = params_.rate;
    if (params_.ramp > 0 && sim_.now() < params_.ramp) {
      const double frac = static_cast<double>(sim_.now()) /
                          static_cast<double>(params_.ramp);
      rate *= std::max(0.05, frac);
    }
    at = sim_.now() + sim::from_seconds(rng_.exponential(1.0 / rate));
  } else {
    if (cursor_ >= trace_->size()) {
      if (!replay_.loop) {
        running_ = false;
        return;
      }
      cursor_ = 0;
      loop_start_ = sim_.now();
    }
    at = loop_start_ +
         static_cast<sim::Time>(
             static_cast<double>(trace_->entries()[cursor_].at) /
             replay_.speedup);
  }
  sim_.schedule_at(at, [this, e = epoch_] {
    if (epoch_ != e) return;
    send_request(trace_ == nullptr ? popularity_->sample(rng_)
                                   : trace_->entries()[cursor_++].file);
    schedule_next_arrival();
  });
}

void Client::send_request(FileId file) {
  const std::uint64_t id = pending_.end_id();
  const net::NodeId dst = destinations_[rr_ % destinations_.size()];
  ++rr_;
  recorder_.record_offered();
  trace::emit(sim_, trace::Category::kWorkload, trace::Kind::kReqSend,
              self_.id(), static_cast<std::int64_t>(id));

  pending_.insert(id, Pending{sim_.now(), dst});

  // Connection-refused (process down, node down behind an up link) fails
  // fast, like a TCP RST.
  net::Network::SendOptions options;
  options.reliable = true;
  options.on_refused = [this, id] { fail(id, FailureReason::kRefused); };
  net_.send(self_.id(), dst, dst_port_, kHttpRequestBytes,
            net::make_body<HttpRequest>(HttpRequest{file, self_.id(), id}),
            std::move(options));

  // An unarmed walk has nothing open left to time: this request is its
  // next target.
  assert(connect_armed_ || connect_next_ == id);
  if (!connect_armed_) arm_connect_deadline();
  if (!completion_armed_) arm_completion_deadline();
}

// 2 s connect timeout: if the destination is unreachable or dead when the
// SYN would be answered, the connection attempt is abandoned.
void Client::on_connect_deadline() {
  connect_armed_ = false;
  connect_next_ = std::max(connect_next_, pending_.front_id());
  for (; connect_next_ < pending_.end_id(); ++connect_next_) {
    const Pending* p = pending_.find(connect_next_);
    if (p == nullptr) continue;  // closed: nothing to check
    if (p->sent + params_.connect_timeout > sim_.now()) break;
    const bool reachable = net_.path_up(self_.id(), p->dst) &&
                           net_.host(p->dst).state() == net::Host::State::kUp;
    if (!reachable) fail(connect_next_, FailureReason::kConnectTimeout);
  }
  arm_connect_deadline();
}

// 6 s completion timeout. The ring's front is the oldest open request.
void Client::on_completion_deadline() {
  completion_armed_ = false;
  while (!pending_.empty() &&
         pending_.front().sent + params_.completion_timeout <= sim_.now()) {
    fail(pending_.front_id(), FailureReason::kCompletionTimeout);
  }
  arm_completion_deadline();
}

void Client::arm_connect_deadline() {
  const Pending* next = pending_.find(connect_next_);
  if (next == nullptr) return;
  connect_armed_ = true;
  sim_.schedule_at(next->sent + params_.connect_timeout,
                   [this] { on_connect_deadline(); });
}

void Client::arm_completion_deadline() {
  if (pending_.empty()) return;
  completion_armed_ = true;
  sim_.schedule_at(pending_.front().sent + params_.completion_timeout,
                   [this] { on_completion_deadline(); });
}

void Client::on_reply(const net::Packet& packet) {
  const auto& reply = net::body_as<HttpReply>(packet);
  // A late reply after a timeout finds nothing: ignored.
  if (!pending_.erase(reply.request_id)) return;
  trace::emit(sim_, trace::Category::kWorkload, trace::Kind::kReqOk,
              self_.id(), static_cast<std::int64_t>(reply.request_id));
  recorder_.record_success();
}

void Client::fail(std::uint64_t request_id, FailureReason reason) {
  if (!pending_.erase(request_id)) return;
  trace::emit(sim_, trace::Category::kWorkload, trace::Kind::kReqFail,
              self_.id(), static_cast<std::int64_t>(request_id),
              static_cast<std::int64_t>(reason));
  recorder_.record_failure(reason);
}

}  // namespace availsim::workload
