#include "availsim/trace/trace.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>

namespace availsim::trace {

const char* to_string(Category category) {
  switch (category) {
    case Category::kSim: return "sim";
    case Category::kNet: return "net";
    case Category::kDisk: return "disk";
    case Category::kPress: return "press";
    case Category::kMembership: return "membership";
    case Category::kQmon: return "qmon";
    case Category::kFme: return "fme";
    case Category::kFrontend: return "frontend";
    case Category::kWorkload: return "workload";
    case Category::kFault: return "fault";
    case Category::kHarness: return "harness";
  }
  return "?";
}

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kNone: return "none";
    case Kind::kSimStep: return "sim_step";
    case Kind::kLinkDown: return "link_down";
    case Kind::kLinkUp: return "link_up";
    case Kind::kSwitchDown: return "switch_down";
    case Kind::kSwitchUp: return "switch_up";
    case Kind::kLinkDegraded: return "link_degraded";
    case Kind::kLinkHealed: return "link_healed";
    case Kind::kFlapStart: return "flap_start";
    case Kind::kFlapStop: return "flap_stop";
    case Kind::kPacketLost: return "packet_lost";
    case Kind::kDiskFail: return "disk_fail";
    case Kind::kDiskDegrade: return "disk_degrade";
    case Kind::kDiskRepair: return "disk_repair";
    case Kind::kPressStart: return "press_start";
    case Kind::kPressStop: return "press_stop";
    case Kind::kPressHang: return "press_hang";
    case Kind::kPressUnhang: return "press_unhang";
    case Kind::kPressBlocked: return "press_blocked";
    case Kind::kPressUnblocked: return "press_unblocked";
    case Kind::kPressAddMember: return "press_add_member";
    case Kind::kPressExclude: return "press_exclude";
    case Kind::kPressSelfExclude: return "press_self_exclude";
    case Kind::kPressDetect: return "press_detect";
    case Kind::kPressHbSeen: return "press_hb_seen";
    case Kind::kPressRejoin: return "press_rejoin";
    case Kind::kQueuePush: return "queue_push";
    case Kind::kQueuePop: return "queue_pop";
    case Kind::kQueuePurge: return "queue_purge";
    case Kind::kQueueReroute: return "queue_reroute";
    case Kind::kQueueFail: return "queue_fail";
    case Kind::kQueueSlowPeer: return "queue_slow_peer";
    case Kind::kMemStart: return "mem_start";
    case Kind::kMemStop: return "mem_stop";
    case Kind::kMemViewInstall: return "mem_view_install";
    case Kind::kMemCommit: return "mem_commit";
    case Kind::kMemSuspect: return "mem_suspect";
    case Kind::kMemDownReport: return "mem_down_report";
    case Kind::kMemMerge: return "mem_merge";
    case Kind::kFmeStart: return "fme_start";
    case Kind::kFmeProbeOk: return "fme_probe_ok";
    case Kind::kFmeProbeFail: return "fme_probe_fail";
    case Kind::kFmeRestart: return "fme_restart";
    case Kind::kFmeOffline: return "fme_offline";
    case Kind::kFeMask: return "fe_mask";
    case Kind::kFeUnmask: return "fe_unmask";
    case Kind::kReqSend: return "req_send";
    case Kind::kReqOk: return "req_ok";
    case Kind::kReqFail: return "req_fail";
    case Kind::kFaultInject: return "fault_inject";
    case Kind::kFaultRepair: return "fault_repair";
    case Kind::kTestbedStart: return "testbed_start";
    case Kind::kOperatorReset: return "operator_reset";
    case Kind::kAuditTick: return "audit_tick";
    case Kind::kKindCount: return "?";
  }
  return "?";
}

Tracer::Tracer(TracerOptions options) : options_(options) {
  ring_.resize(std::max<std::size_t>(options_.capacity, 1));
}

void Tracer::add_listener(TraceListener* listener) {
  listeners_.push_back(listener);
}

void Tracer::remove_listener(TraceListener* listener) {
  std::erase(listeners_, listener);
}

void Tracer::emit(sim::Time at, Category category, Kind kind,
                  std::int32_t node, std::int64_t a, std::int64_t b,
                  std::int64_t c) {
  TraceRecord& record = ring_[head_];
  record.at = at;
  record.seq = seq_++;
  record.a = a;
  record.b = b;
  record.c = c;
  record.node = node;
  record.category = category;
  record.kind = kind;
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  if (count_ < ring_.size()) ++count_;
  for (TraceListener* l : listeners_) l->on_record(record);
}

std::vector<TraceRecord> Tracer::snapshot() const { return last(count_); }

std::vector<TraceRecord> Tracer::last(std::size_t n) const {
  n = std::min(n, count_);
  std::vector<TraceRecord> out;
  out.reserve(n);
  // head_ is the next write slot; the newest record sits just before it.
  std::size_t start = (head_ + ring_.size() - n) % ring_.size();
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void Tracer::clear() {
  head_ = 0;
  count_ = 0;
}

std::string format_record(const TraceRecord& record) {
  std::string out;
  out.reserve(96);
  out += std::to_string(record.at);
  out += ' ';
  out += to_string(record.category);
  out += ' ';
  out += to_string(record.kind);
  out += " node=";
  out += std::to_string(record.node);
  out += " a=";
  out += std::to_string(record.a);
  out += " b=";
  out += std::to_string(record.b);
  out += " c=";
  out += std::to_string(record.c);
  return out;
}

std::string to_jsonl(const TraceRecord& record) {
  std::string out;
  out.reserve(160);
  out += "{\"at\":";
  out += std::to_string(record.at);
  out += ",\"seq\":";
  out += std::to_string(record.seq);
  out += ",\"cat\":\"";
  out += to_string(record.category);
  out += "\",\"kind\":\"";
  out += to_string(record.kind);
  out += "\",\"node\":";
  out += std::to_string(record.node);
  out += ",\"a\":";
  out += std::to_string(record.a);
  out += ",\"b\":";
  out += std::to_string(record.b);
  out += ",\"c\":";
  out += std::to_string(record.c);
  out += "}";
  return out;
}

namespace {

bool eat(std::string_view& s, std::string_view token) {
  if (!s.starts_with(token)) return false;
  s.remove_prefix(token.size());
  return true;
}

template <typename Int>
bool eat_int(std::string_view& s, Int& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{} || ptr == s.data()) return false;
  s.remove_prefix(static_cast<std::size_t>(ptr - s.data()));
  return true;
}

bool eat_category(std::string_view& s, Category& out) {
  for (std::uint32_t bit = 1; bit <= kAllCategories; bit <<= 1) {
    const auto category = static_cast<Category>(bit);
    if (eat(s, to_string(category))) {
      out = category;
      return true;
    }
  }
  return false;
}

bool eat_kind(std::string_view& s, Kind& out) {
  // Longest match wins: several kind names are prefixes of others
  // (press_hang/press_hb_seen differ, but e.g. link_down vs link_downX is
  // guarded by the closing quote anyway; match against the quote).
  const auto end = s.find('"');
  if (end == std::string_view::npos) return false;
  const std::string_view name = s.substr(0, end);
  for (std::uint16_t k = 0; k < static_cast<std::uint16_t>(Kind::kKindCount);
       ++k) {
    const auto kind = static_cast<Kind>(k);
    if (name == to_string(kind)) {
      out = kind;
      s.remove_prefix(end);
      return true;
    }
  }
  return false;
}

}  // namespace

bool parse_jsonl(std::string_view line, TraceRecord& out) {
  TraceRecord r;
  if (!eat(line, "{\"at\":") || !eat_int(line, r.at)) return false;
  if (!eat(line, ",\"seq\":") || !eat_int(line, r.seq)) return false;
  if (!eat(line, ",\"cat\":\"") || !eat_category(line, r.category)) {
    return false;
  }
  if (!eat(line, "\",\"kind\":\"") || !eat_kind(line, r.kind)) return false;
  if (!eat(line, "\",\"node\":") || !eat_int(line, r.node)) return false;
  if (!eat(line, ",\"a\":") || !eat_int(line, r.a)) return false;
  if (!eat(line, ",\"b\":") || !eat_int(line, r.b)) return false;
  if (!eat(line, ",\"c\":") || !eat_int(line, r.c)) return false;
  if (line != "}") return false;
  out = r;
  return true;
}

void Tracer::export_text(std::ostream& out) const {
  for (const TraceRecord& r : snapshot()) out << format_record(r) << '\n';
}

void Tracer::export_jsonl(std::ostream& out) const {
  for (const TraceRecord& r : snapshot()) out << to_jsonl(r) << '\n';
}

}  // namespace availsim::trace
