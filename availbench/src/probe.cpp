#include "probe.hpp"

#include <algorithm>

#include "alloc_count.hpp"

namespace availbench {

namespace {

// Every PressNode::Stats field, in declaration order.
std::array<std::uint64_t, 16> press_fields(const press::PressNode::Stats& s) {
  return {s.served_local_cache, s.served_local_disk, s.served_remote,
          s.forwards_sent,      s.forward_replies,   s.forward_failures,
          s.rerouted,           s.rerouted_slow,     s.shed_stale,
          s.dropped_overload,   s.dropped_nonmember, s.exclusions,
          s.self_exclusions,    s.qmon_failures,     s.rejoins,
          s.blocked_episodes};
}

press::PressNode::Stats press_from(const std::array<std::uint64_t, 16>& f) {
  return {f[0], f[1], f[2],  f[3],  f[4],  f[5],  f[6],  f[7],
          f[8], f[9], f[10], f[11], f[12], f[13], f[14], f[15]};
}

std::uint64_t net_pkts(const net::Network& n) {
  return n.packets_delivered() + n.packets_dropped() + n.packets_lost();
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

}  // namespace

Counters read_counters(const sim::Simulator& sim, harness::Testbed& tb) {
  Counters c;
  c.events = sim.events_processed();
  c.offered = tb.recorder().total_offered();
  c.served = tb.recorder().total_success();
  for (int r = 0; r < workload::kFailureReasonCount; ++r) {
    c.failed[static_cast<std::size_t>(r)] =
        tb.recorder().failures_by_reason(static_cast<workload::FailureReason>(r));
  }
  c.cluster_pkts = net_pkts(tb.cluster_net());
  c.client_pkts = net_pkts(tb.client_net());
  c.pkts_lost = tb.cluster_net().packets_dropped() +
                tb.cluster_net().packets_lost() +
                tb.client_net().packets_dropped() +
                tb.client_net().packets_lost();
  std::array<std::uint64_t, 16> press{};
  const int disks = tb.options().press.disk_count;
  for (int i = 0; i < tb.server_count(); ++i) {
    const auto f = press_fields(tb.server(i).stats());
    for (std::size_t k = 0; k < f.size(); ++k) press[k] += f[k];
    for (int d = 0; d < disks; ++d) {
      c.disk_ops += tb.disk(i * disks + d).ops_completed();
    }
    if (const fme::FmeDaemon* fme = tb.fme_daemon(i)) {
      c.fme.probes += fme->stats().probes;
      c.fme.probe_failures += fme->stats().probe_failures;
      c.fme.offline_actions += fme->stats().offline_actions;
      c.fme.restart_actions += fme->stats().restart_actions;
    }
  }
  c.press = press_from(press);
  if (const frontend::Frontend* fe = tb.front_end()) {
    c.fe_forwarded = fe->forwarded();
    c.fe_dropped = fe->dropped();
  }
  if (const trace::Tracer* t = sim.tracer()) c.trace_records = t->emitted();
  return c;
}

Counters delta(const Counters& e, const Counters& s) {
  Counters d;
  d.events = e.events - s.events;
  d.offered = e.offered - s.offered;
  d.served = e.served - s.served;
  for (std::size_t r = 0; r < d.failed.size(); ++r) {
    d.failed[r] = e.failed[r] - s.failed[r];
  }
  d.cluster_pkts = e.cluster_pkts - s.cluster_pkts;
  d.client_pkts = e.client_pkts - s.client_pkts;
  d.pkts_lost = e.pkts_lost - s.pkts_lost;
  d.disk_ops = e.disk_ops - s.disk_ops;
  const auto pe = press_fields(e.press);
  const auto ps = press_fields(s.press);
  std::array<std::uint64_t, 16> pd{};
  for (std::size_t k = 0; k < pd.size(); ++k) pd[k] = pe[k] - ps[k];
  d.press = press_from(pd);
  d.fme.probes = e.fme.probes - s.fme.probes;
  d.fme.probe_failures = e.fme.probe_failures - s.fme.probe_failures;
  d.fme.offline_actions = e.fme.offline_actions - s.fme.offline_actions;
  d.fme.restart_actions = e.fme.restart_actions - s.fme.restart_actions;
  d.fe_forwarded = e.fe_forwarded - s.fe_forwarded;
  d.fe_dropped = e.fe_dropped - s.fe_dropped;
  d.trace_records = e.trace_records - s.trace_records;
  return d;
}

std::uint64_t digest(harness::Testbed& tb, const Counters& w,
                     sim::Time from, sim::Time to) {
  Fnv f;
  f.add(w.events);
  f.add(w.offered);
  f.add(w.served);
  for (std::uint64_t v : w.failed) f.add(v);
  f.add(w.cluster_pkts);
  f.add(w.client_pkts);
  f.add(w.pkts_lost);
  f.add(w.disk_ops);
  for (int i = 0; i < tb.server_count(); ++i) {
    for (std::uint64_t v : press_fields(tb.server(i).stats())) f.add(v);
  }
  const workload::Recorder& rec = tb.recorder();
  const std::size_t lo = static_cast<std::size_t>(from / rec.bin_width());
  const std::size_t hi = std::min(
      rec.bin_count(), static_cast<std::size_t>(to / rec.bin_width()));
  for (std::size_t b = lo; b < hi; ++b) {
    f.add(rec.success_bins()[b]);
    f.add(rec.offered_bins()[b]);
  }
  return f.h;
}

RecordCounter::RecordCounter(trace::Tracer& tracer, trace::Auditor* auditor)
    : tracer_(tracer), auditor_(auditor) {
  if (auditor_ != nullptr) tracer_.remove_listener(auditor_);
  tracer_.add_listener(this);
}

RecordCounter::~RecordCounter() { tracer_.remove_listener(this); }

void RecordCounter::open_window() {
  by_kind_.fill(0);
  outstanding_max_ = outstanding_;
  sendq_max_ = 0;
}

void RecordCounter::on_record(const trace::TraceRecord& r) {
  alloc::Pause pause;
  if (auditor_ != nullptr) auditor_->on_record(r);
  ++by_kind_[static_cast<std::size_t>(r.kind)];
  switch (r.kind) {
    case trace::Kind::kReqSend:
      outstanding_max_ = std::max(outstanding_max_, ++outstanding_);
      break;
    case trace::Kind::kReqOk:
    case trace::Kind::kReqFail:
      --outstanding_;
      break;
    case trace::Kind::kQueuePush:
      sendq_max_ = std::max(sendq_max_, r.c);
      break;
    default:
      break;
  }
}

}  // namespace availbench
