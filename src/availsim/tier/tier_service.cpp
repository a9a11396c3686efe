#include "availsim/tier/tier_service.hpp"

#include <cassert>
#include <utility>

namespace availsim::tier {

TierNode::TierNode(sim::Simulator& simulator, net::Network& cluster,
                   net::Network& client_net, net::Host& host, sim::Rng rng,
                   Role role, TierParams params, disk::Disk* db_disk)
    : sim_(simulator),
      cluster_(cluster),
      client_net_(client_net),
      host_(host),
      rng_(std::move(rng)),
      role_(role),
      p_(params),
      db_disk_(db_disk) {
  assert(role_ != Role::kDb || db_disk_ != nullptr);
}

void TierNode::set_downstream(std::vector<net::NodeId> downstream) {
  downstream_ = std::move(downstream);
}

void TierNode::start() {
  if (host_.state() != net::Host::State::kUp) return;
  ++epoch_;
  process_up_ = true;
  hung_ = false;
  pending_.clear();
  backlog_.clear();
  active_ = 0;
  cpu_free_ = sim_.now();
  const int in_port = role_ == Role::kWeb   ? ports::kWeb
                      : role_ == Role::kApp ? ports::kApp
                                            : ports::kDb;
  host_.bind(in_port, [this](const net::Packet& p) { on_request(p); });
  if (role_ == Role::kWeb) {
    host_.bind(ports::kAppReply,
               [this](const net::Packet& p) { on_reply(p); });
  } else if (role_ == Role::kApp) {
    host_.bind(ports::kDbReply,
               [this](const net::Packet& p) { on_reply(p); });
  }
  arm_sweeper();
}

void TierNode::crash_process() {
  if (!process_up_) return;
  ++epoch_;
  process_up_ = false;
  hung_ = false;
  for (int port : {ports::kWeb, ports::kApp, ports::kDb, ports::kAppReply,
                   ports::kDbReply}) {
    host_.unbind(port);
  }
  pending_.clear();
  backlog_.clear();
  if (db_disk_) db_disk_->purge();
}

void TierNode::hang_process() {
  if (process_up_) hung_ = true;
}

void TierNode::unhang_process() {
  if (!process_up_ || !hung_) return;
  hung_ = false;
  while (!backlog_.empty() && ok()) {
    net::Packet pkt = std::move(backlog_.front());
    backlog_.pop_front();
    if (pkt.port == ports::kAppReply || pkt.port == ports::kDbReply) {
      on_reply(pkt);
    } else {
      on_request(pkt);
    }
  }
}

void TierNode::arm_sweeper() {
  sim_.schedule_after(sim::kSecond, [this, e = epoch_] {
    if (epoch_ != e || !process_up_) return;
    while (!pending_.empty() && sim_.now() > pending_.front().deadline) {
      pending_.erase(pending_.front_id());
      --active_;
    }
    arm_sweeper();
  });
}

void TierNode::on_request(const net::Packet& packet) {
  if (!process_up_) return;
  if (hung_) {
    if (backlog_.size() < 4096) backlog_.push_back(packet);
    return;
  }
  const auto request = net::body_as<workload::HttpRequest>(packet);
  if (request.sent_at > 0 &&
      sim_.now() - request.sent_at > p_.request_shed_age) {
    return;  // client is long gone
  }
  if (active_ >= p_.max_concurrent) return;  // accept queue full
  ++active_;

  const sim::Time cost = role_ == Role::kWeb   ? p_.web_cpu
                         : role_ == Role::kApp ? p_.app_cpu
                                               : p_.db_cpu;
  schedule_cpu(cost, [this, request] {
    if (role_ == Role::kDb) {
      if (rng_.uniform() < p_.db_disk_fraction) {
        // Buffer-pool miss: the query touches the database disk.
        const bool accepted =
            db_disk_->submit(8192, [this, e = epoch_, request] {
              if (epoch_ != e || !ok()) return;
              schedule_cpu(p_.db_cpu / 2, [this, request] { finish(request); });
            });
        if (!accepted) --active_;  // disk saturated/wedged: query is lost
        return;
      }
      finish(request);
      return;
    }
    // Web/app: forward downstream and remember the caller.
    const std::uint64_t tag = next_tag_++;
    workload::HttpRequest down;
    down.file = request.file;
    down.client = id();
    down.request_id = tag;
    down.reply_port =
        role_ == Role::kWeb ? ports::kAppReply : ports::kDbReply;
    down.sent_at = request.sent_at;
    pending_.insert(
        tag, PendingDownstream{request, sim_.now() + p_.request_shed_age});
    const net::NodeId target = downstream_[rr_++ % downstream_.size()];
    net::SendOptions o;
    o.reliable = true;
    cluster_.send(id(), target,
                  role_ == Role::kWeb ? ports::kApp : ports::kDb, 512,
                  net::make_body<workload::HttpRequest>(down), std::move(o));
  });
}

void TierNode::on_reply(const net::Packet& packet) {
  if (!process_up_) return;
  if (hung_) {
    if (backlog_.size() < 4096) backlog_.push_back(packet);
    return;
  }
  const auto& reply = net::body_as<workload::HttpReply>(packet);
  const PendingDownstream* pending = pending_.find(reply.request_id);
  if (pending == nullptr) return;  // swept
  const workload::HttpRequest request = pending->request;
  pending_.erase(reply.request_id);
  schedule_cpu(p_.web_cpu / 2, [this, request] { finish(request); });
}

void TierNode::finish(const workload::HttpRequest& request) {
  --active_;
  ++served_;
  net::Network& net = role_ == Role::kWeb ? client_net_ : cluster_;
  net.send(id(), request.client, request.reply_port,
           role_ == Role::kWeb ? 8 * 1024 : 512,
           net::make_body<workload::HttpReply>(
               workload::HttpReply{request.request_id}));
}

}  // namespace availsim::tier
