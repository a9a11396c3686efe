#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "availsim/sim/node_set.hpp"
#include "availsim/sim/time.hpp"
#include "availsim/trace/trace.hpp"

namespace availsim::trace {

/// Invariant thresholds mirroring the configuration of the audited run;
/// the Testbed fills these from its PressParams/FmeParams so the auditor
/// enforces exactly the values the detectors are supposed to fire at.
struct AuditorConfig {
  /// Internal heartbeat-ring sanity: no exclusion without the full silence
  /// deadline (heartbeat_tolerance * period + period / 2). 0 disables.
  sim::Time hb_deadline = 0;
  /// Qmon thresholds: enforced only when the run has monitoring enabled.
  bool qmon_enabled = false;
  std::int64_t reroute_requests = 128;
  std::int64_t fail_requests = 256;
  std::int64_t fail_total = 512;
  /// FME action policy.
  int fme_confirm = 2;
  sim::Time fme_restart_cooldown = 30 * sim::kSecond;
  /// Membership view agreement is only checked at audit ticks after the
  /// cluster has been fault-free and view-stable this long (convergence
  /// takes announce_period + a 2PC round; these bounds are generous).
  sim::Time quiet_after_fault = 120 * sim::kSecond;
  sim::Time quiet_after_view = 60 * sim::kSecond;
  /// Records included in a violation's trace window.
  std::size_t window = 48;
};

struct Violation {
  std::string invariant;
  std::string detail;
  TraceRecord record;  // the record that tripped the check
};

/// Online cross-subsystem invariant checker. Subscribes to a Tracer and
/// re-derives, from the record stream alone, the state every protocol
/// claims to be in — then flags any record inconsistent with it:
///
///  * monotone-time: records never move backwards in sim time.
///  * request-conservation: every request a client sends terminates
///    exactly once (reply, connect/completion timeout, or refused).
///  * queue-accounting: qmon send-queue lengths equal pushes minus
///    pops/purges, and the reroute/fail thresholds fire exactly at their
///    configured values (128/256/512 by default).
///  * heartbeat-ring: a ring exclusion requires the full silence deadline
///    since the predecessor's last heartbeat.
///  * coop-set: cooperation sets change only through the legal
///    transitions (start/add/exclude/self-exclude), always contain self,
///    and shrink only via exclusions. Sets follow the records' subjects, so
///    this holds at any size; masks are compared on ids below 64.
///  * membership-2pc: two CommitChange deliveries with one change id
///    never carry different views.
///  * membership-agreement: after quiescence, all running daemons hold
///    identical views.
///    Views reach the auditor only as 64-bit masks (their records name no
///    subject), so both membership checks see members below 64 only.
///  * fme-policy: enforcement actions require `confirm` consecutive probe
///    failures; restarts respect the cooldown; offline actions require a
///    faulty disk on the node.
///  * fault-injection: the injector never double-injects or repairs an
///    inactive (type, component) pair.
///
/// On violation the `on_violation` hook runs if set (tests collect);
/// otherwise the violation and the last `window` trace records are written
/// to stderr and to availsim_audit_violation.txt, then the process aborts.
class Auditor : public TraceListener {
 public:
  /// Registers with (and must not outlive) `tracer`.
  Auditor(Tracer& tracer, AuditorConfig config);
  ~Auditor() override;

  void on_record(const TraceRecord& record) override;

  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t records_audited() const { return audited_; }

  /// Override to collect violations instead of aborting.
  std::function<void(const Violation&)> on_violation;

  /// The last `window` retained records, one format_record() line each.
  std::string format_window() const;

 private:
  void violate(const TraceRecord& record, const char* invariant,
               std::string detail);
  void check_membership_agreement(const TraceRecord& record);
  void check_coop_change(const TraceRecord& record);
  void reset_node(std::int32_t node);

  static std::uint64_t pair_key(std::int32_t node, std::int64_t other) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
            << 32) |
           static_cast<std::uint32_t>(other);
  }

  Tracer& tracer_;
  AuditorConfig cfg_;
  std::vector<Violation> violations_;
  std::uint64_t audited_ = 0;
  sim::Time last_at_ = 0;

  // request-conservation: open (client, request id) pairs
  std::unordered_set<std::uint64_t> open_requests_;

  // queue-accounting: (node, peer) -> expected lengths
  struct QueueState {
    std::int64_t requests = 0;
    std::int64_t total = 0;
  };
  std::unordered_map<std::uint64_t, QueueState> queues_;

  // heartbeat-ring: (node, peer) -> last heartbeat seen
  std::unordered_map<std::uint64_t, sim::Time> hb_seen_;

  // coop-set: node -> its cooperation set, while its process is up
  struct CoopState {
    sim::NodeSet members;
    // After a static start (no membership protocol), whose mask names only
    // ids below 64: adds and exclusions of ids from 64 up go unchecked.
    bool high_unknown = false;
  };
  std::unordered_map<std::int32_t, CoopState> coop_;

  // membership: per-daemon view state + per-change committed view
  struct MemberState {
    bool running = false;
    std::uint64_t view = 0;
    std::int64_t version = 0;
  };
  std::unordered_map<std::int32_t, MemberState> members_;
  std::unordered_map<std::int64_t, std::uint64_t> commits_;

  // fme: per-node probe-failure streaks and restart times
  std::unordered_map<std::int32_t, int> fme_failures_;
  std::unordered_map<std::int32_t, sim::Time> fme_restart_at_;

  // disks: (node, index) pairs currently faulty/degraded (for fme-offline)
  std::unordered_set<std::uint64_t> bad_disks_;

  // fault-injection: active (type, component) pairs
  std::unordered_set<std::uint64_t> active_faults_;
  sim::Time last_fault_change_ = 0;
  sim::Time last_view_change_ = 0;
};

}  // namespace availsim::trace
