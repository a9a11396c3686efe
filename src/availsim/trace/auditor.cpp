#include "availsim/trace/auditor.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

namespace availsim::trace {

namespace {

/// Request keys pack the client node above the id (ids stay < 2^48 even on
/// multi-month simulated horizons).
std::uint64_t request_key(std::int32_t node, std::int64_t id) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 48) |
         (static_cast<std::uint64_t>(id) & ((std::uint64_t{1} << 48) - 1));
}

std::string mask_str(std::uint64_t mask) {
  std::string out = "{";
  for (int n = 0; n < 64; ++n) {
    if ((mask >> n) & 1) {
      if (out.size() > 1) out += ',';
      out += std::to_string(n);
    }
  }
  out += '}';
  return out;
}

}  // namespace

Auditor::Auditor(Tracer& tracer, AuditorConfig config)
    : tracer_(tracer), cfg_(config) {
  tracer_.add_listener(this);
}

Auditor::~Auditor() { tracer_.remove_listener(this); }

std::string Auditor::format_window() const {
  std::string out;
  for (const TraceRecord& r : tracer_.last(cfg_.window)) {
    out += format_record(r);
    out += '\n';
  }
  return out;
}

void Auditor::violate(const TraceRecord& record, const char* invariant,
                      std::string detail) {
  Violation v{invariant, std::move(detail), record};
  violations_.push_back(v);
  if (on_violation) {
    on_violation(v);
    return;
  }
  std::string msg = "AUDIT VIOLATION [";
  msg += v.invariant;
  msg += "] at t=";
  msg += std::to_string(record.at);
  msg += "ns: ";
  msg += v.detail;
  msg += "\noffending record: ";
  msg += format_record(record);
  msg += "\n--- trace window (oldest first) ---\n";
  msg += format_window();
  std::fputs(msg.c_str(), stderr);
  std::ofstream out("availsim_audit_violation.txt");
  out << msg;
  out.close();
  std::abort();
}

void Auditor::reset_node(std::int32_t node) {
  coop_.erase(node);
  const std::uint64_t lo = pair_key(node, 0);
  const std::uint64_t hi = pair_key(node + 1, 0);
  std::erase_if(queues_, [&](const auto& kv) {
    return kv.first >= lo && kv.first < hi;
  });
  std::erase_if(hb_seen_, [&](const auto& kv) {
    return kv.first >= lo && kv.first < hi;
  });
}

void Auditor::check_membership_agreement(const TraceRecord& record) {
  if (!active_faults_.empty()) return;
  if (record.at - last_fault_change_ < cfg_.quiet_after_fault) return;
  if (record.at - last_view_change_ < cfg_.quiet_after_view) return;
  std::uint64_t expect = 0;
  std::int32_t expect_node = -1;
  // availlint: ordered-ok(agreement check; any mismatching pair violates)
  for (const auto& [node, m] : members_) {
    if (!m.running) continue;
    if (expect_node < 0) {
      expect = m.view;
      expect_node = node;
      continue;
    }
    if (m.view != expect) {
      violate(record, "membership-agreement",
              "quiescent daemons disagree: node " +
                  std::to_string(expect_node) + " holds " + mask_str(expect) +
                  " but node " + std::to_string(node) + " holds " +
                  mask_str(m.view));
      return;
    }
  }
}

void Auditor::check_coop_change(const TraceRecord& record) {
  const std::string node = std::to_string(record.node);
  auto it = coop_.find(record.node);
  if (it == coop_.end()) {
    return violate(record, "coop-set",
                   "coop-set change on node " + node +
                       " whose process is not running");
  }
  CoopState& c = it->second;
  const auto after = static_cast<std::uint64_t>(record.b);
  const std::uint64_t self = node_bit(record.node);
  if (self != 0 && (after & self) == 0) {
    violate(record, "coop-set",
            "node " + node + " dropped itself from its own coop set " +
                mask_str(after));
  }
  if (record.kind == Kind::kPressSelfExclude) {
    c = CoopState{sim::NodeSet{record.node}};
    if (after != self) {
      violate(record, "coop-set",
              "self-exclusion of node " + node + " left a non-singleton set " +
                  mask_str(after));
    }
    return;
  }
  // A rejoin names no subject: the adds before it built its set.
  if (record.kind == Kind::kPressRejoin) return;
  const bool add = record.kind == Kind::kPressAddMember;
  const auto subject = static_cast<sim::NodeSet::Id>(record.a);
  const std::string a = std::to_string(record.a);
  if ((record.a < 64 || !c.high_unknown) &&
      c.members.contains(subject) == add) {
    return violate(record, "coop-set",
                   "node " + node +
                       (add ? " re-added member " : " excluded non-member ") +
                       a);
  }
  const std::uint64_t before = c.members.mask();
  if (add) {
    c.members.insert(subject);
  } else {
    c.members.erase(subject);
  }
  if (after != c.members.mask()) {
    violate(record, "coop-set",
            (add ? "add of " : "exclusion of ") + a + " turned " +
                mask_str(before) + " into " + mask_str(after));
  }
}

void Auditor::on_record(const TraceRecord& record) {
  ++audited_;
  if (record.at < last_at_) {
    violate(record, "monotone-time",
            "record at t=" + std::to_string(record.at) +
                " after one at t=" + std::to_string(last_at_));
  }
  last_at_ = record.at;

  switch (record.kind) {
    // --- request conservation -------------------------------------------
    case Kind::kReqSend: {
      const auto key = request_key(record.node, record.a);
      if (!open_requests_.insert(key).second) {
        violate(record, "request-conservation",
                "client " + std::to_string(record.node) +
                    " reused request id " + std::to_string(record.a));
      }
      break;
    }
    case Kind::kReqOk:
    case Kind::kReqFail: {
      const auto key = request_key(record.node, record.a);
      if (open_requests_.erase(key) == 0) {
        violate(record, "request-conservation",
                "request " + std::to_string(record.a) + " of client " +
                    std::to_string(record.node) +
                    " terminated twice (or never sent)");
      }
      break;
    }

    // --- cooperation set -------------------------------------------------
    case Kind::kPressStart: {
      reset_node(record.node);
      const auto mask = static_cast<std::uint64_t>(record.a);
      const std::uint64_t self = node_bit(record.node);
      if (self != 0 && (mask & self) == 0) {
        violate(record, "coop-set",
                "node " + std::to_string(record.node) +
                    " started with a coop set excluding itself");
      }
      CoopState& c = coop_[record.node];
      c.members.insert(record.node);
      for (int n = 0; n < 64; ++n) {
        if (((mask >> n) & 1) != 0) c.members.insert(n);
      }
      // A process under a membership protocol starts alone; only a static
      // set names other nodes at start.
      c.high_unknown = (mask & ~self) != 0;
      break;
    }
    case Kind::kPressStop:
      reset_node(record.node);
      break;
    case Kind::kPressAddMember:
    case Kind::kPressExclude:
    case Kind::kPressSelfExclude:
    case Kind::kPressRejoin:
      check_coop_change(record);
      break;

    // --- heartbeat ring --------------------------------------------------
    case Kind::kPressHbSeen:
      hb_seen_[pair_key(record.node, record.a)] = record.at;
      break;
    case Kind::kPressDetect: {
      if (cfg_.hb_deadline <= 0) break;
      auto it = hb_seen_.find(pair_key(record.node, record.a));
      if (it == hb_seen_.end()) {
        violate(record, "heartbeat-ring",
                "node " + std::to_string(record.node) + " suspected " +
                    std::to_string(record.a) +
                    " without any heartbeat history");
        break;
      }
      const sim::Time silence = record.at - it->second;
      if (silence <= cfg_.hb_deadline) {
        violate(record, "heartbeat-ring",
                "node " + std::to_string(record.node) + " suspected " +
                    std::to_string(record.a) + " after only " +
                    std::to_string(silence) + "ns of silence (deadline " +
                    std::to_string(cfg_.hb_deadline) + "ns)");
      }
      break;
    }

    // --- send-queue accounting ------------------------------------------
    case Kind::kQueuePush: {
      QueueState& q = queues_[pair_key(record.node, record.a)];
      if (record.b != q.requests + 1 || record.c != q.total + 1) {
        violate(record, "queue-accounting",
                "push to peer " + std::to_string(record.a) + " reported " +
                    std::to_string(record.b) + "/" +
                    std::to_string(record.c) + " but accounting expected " +
                    std::to_string(q.requests + 1) + "/" +
                    std::to_string(q.total + 1));
      }
      q.requests = record.b;
      q.total = record.c;
      if (cfg_.qmon_enabled &&
          (record.b > cfg_.fail_requests || record.c > cfg_.fail_total)) {
        violate(record, "queue-threshold",
                "queue to peer " + std::to_string(record.a) + " grew to " +
                    std::to_string(record.b) + " requests / " +
                    std::to_string(record.c) +
                    " total past the fail thresholds");
      }
      break;
    }
    case Kind::kQueuePop: {
      QueueState& q = queues_[pair_key(record.node, record.a)];
      if (record.b != q.requests - 1 || record.c != q.total - 1) {
        violate(record, "queue-accounting",
                "pop from peer " + std::to_string(record.a) + " reported " +
                    std::to_string(record.b) + "/" +
                    std::to_string(record.c) + " but accounting expected " +
                    std::to_string(q.requests - 1) + "/" +
                    std::to_string(q.total - 1));
      }
      q.requests = record.b;
      q.total = record.c;
      break;
    }
    case Kind::kQueuePurge:
      queues_.erase(pair_key(record.node, record.a));
      break;
    case Kind::kQueueReroute:
      if (cfg_.qmon_enabled && record.b < cfg_.reroute_requests) {
        violate(record, "queue-threshold",
                "reroute away from peer " + std::to_string(record.a) +
                    " fired at " + std::to_string(record.b) +
                    " queued requests (threshold " +
                    std::to_string(cfg_.reroute_requests) + ")");
      }
      break;
    case Kind::kQueueFail:
      if (cfg_.qmon_enabled && record.b < cfg_.fail_requests &&
          record.c < cfg_.fail_total) {
        violate(record, "queue-threshold",
                "qmon declared peer " + std::to_string(record.a) +
                    " failed at " + std::to_string(record.b) +
                    " queued requests / " + std::to_string(record.c) +
                    " total, below both fail thresholds");
      }
      break;
    case Kind::kQueueSlowPeer:
      break;

    // --- membership ------------------------------------------------------
    case Kind::kMemStart:
      members_[record.node] =
          MemberState{true, static_cast<std::uint64_t>(record.a), 0};
      last_view_change_ = record.at;
      break;
    case Kind::kMemStop:
      members_[record.node].running = false;
      last_view_change_ = record.at;
      break;
    case Kind::kMemViewInstall: {
      MemberState& m = members_[record.node];
      const std::uint64_t self = node_bit(record.node);
      const auto mask = static_cast<std::uint64_t>(record.a);
      if (self != 0 && (mask & self) == 0) {
        violate(record, "membership-view",
                "daemon " + std::to_string(record.node) +
                    " installed a view excluding itself: " + mask_str(mask));
      }
      if (record.b <= m.version) {
        violate(record, "membership-view",
                "daemon " + std::to_string(record.node) +
                    " installed non-increasing view version " +
                    std::to_string(record.b) + " (had " +
                    std::to_string(m.version) + ")");
      }
      m.view = mask;
      m.version = record.b;
      last_view_change_ = record.at;
      break;
    }
    case Kind::kMemCommit: {
      if (record.a == 0) break;  // stale-join refresh, not a 2PC commit
      const auto mask = static_cast<std::uint64_t>(record.b);
      auto [it, inserted] = commits_.try_emplace(record.a, mask);
      if (!inserted && it->second != mask) {
        violate(record, "membership-2pc",
                "change " + std::to_string(record.a) +
                    " committed divergent views " + mask_str(it->second) +
                    " and " + mask_str(mask));
      }
      break;
    }
    case Kind::kMemSuspect:
    case Kind::kMemDownReport:
    case Kind::kMemMerge:
      break;

    // --- fme policy ------------------------------------------------------
    case Kind::kFmeStart:
      fme_failures_[record.node] = 0;
      fme_restart_at_.erase(record.node);
      break;
    case Kind::kFmeProbeOk:
      fme_failures_[record.node] = 0;
      break;
    case Kind::kFmeProbeFail:
      ++fme_failures_[record.node];
      break;
    case Kind::kFmeRestart: {
      if (fme_failures_[record.node] < cfg_.fme_confirm) {
        violate(record, "fme-policy",
                "restart on node " + std::to_string(record.node) +
                    " after only " +
                    std::to_string(fme_failures_[record.node]) +
                    " consecutive probe failures (confirm " +
                    std::to_string(cfg_.fme_confirm) + ")");
      }
      auto it = fme_restart_at_.find(record.node);
      if (it != fme_restart_at_.end() &&
          record.at - it->second < cfg_.fme_restart_cooldown) {
        violate(record, "fme-policy",
                "restart on node " + std::to_string(record.node) + " only " +
                    std::to_string(record.at - it->second) +
                    "ns after the previous one (cooldown " +
                    std::to_string(cfg_.fme_restart_cooldown) + "ns)");
      }
      fme_restart_at_[record.node] = record.at;
      fme_failures_[record.node] = 0;
      break;
    }
    case Kind::kFmeOffline: {
      if (fme_failures_[record.node] < cfg_.fme_confirm) {
        violate(record, "fme-policy",
                "offline action on node " + std::to_string(record.node) +
                    " after only " +
                    std::to_string(fme_failures_[record.node]) +
                    " consecutive probe failures (confirm " +
                    std::to_string(cfg_.fme_confirm) + ")");
      }
      bool disk_bad = false;
      const std::uint64_t lo = pair_key(record.node, 0);
      const std::uint64_t hi = pair_key(record.node + 1, 0);
      // availlint: ordered-ok(existence scan; result is order-independent)
      for (const std::uint64_t key : bad_disks_) {
        if (key >= lo && key < hi) {
          disk_bad = true;
          break;
        }
      }
      if (!disk_bad) {
        violate(record, "fme-policy",
                "offline action on node " + std::to_string(record.node) +
                    " with no faulty disk (should have been a restart)");
      }
      break;
    }

    // --- disks -----------------------------------------------------------
    case Kind::kDiskFail:
    case Kind::kDiskDegrade:
      bad_disks_.insert(pair_key(record.node, record.a));
      break;
    case Kind::kDiskRepair:
      bad_disks_.erase(pair_key(record.node, record.a));
      break;

    // --- fault injection -------------------------------------------------
    case Kind::kFaultInject: {
      if (!active_faults_.insert(pair_key(record.node, record.a)).second) {
        violate(record, "fault-injection",
                "double-inject of fault type " + std::to_string(record.a) +
                    " on component " + std::to_string(record.node));
      }
      last_fault_change_ = record.at;
      break;
    }
    case Kind::kFaultRepair: {
      if (active_faults_.erase(pair_key(record.node, record.a)) == 0) {
        violate(record, "fault-injection",
                "repair of inactive fault type " + std::to_string(record.a) +
                    " on component " + std::to_string(record.node));
      }
      last_fault_change_ = record.at;
      break;
    }

    // --- harness ---------------------------------------------------------
    case Kind::kAuditTick:
      check_membership_agreement(record);
      break;
    default:
      break;
  }
}

}  // namespace availsim::trace
