#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "availsim/sim/simulator.hpp"
#include "availsim/sim/time.hpp"

namespace availsim::trace {

/// Subsystem categories, usable as a bitmask for filtering. A Tracer only
/// retains records whose category is in its mask, so the hot paths (per
/// event-loop step, per request) can be compiled in but masked out.
enum class Category : std::uint32_t {
  kSim = 1u << 0,         // event-loop steps (firehose; off by default)
  kNet = 1u << 1,         // link/switch state changes, datagram losses
  kDisk = 1u << 2,        // disk fault-state transitions
  kPress = 1u << 3,       // process lifecycle, cooperation set, heartbeats
  kMembership = 1u << 4,  // daemon lifecycle, views, 2PC commits
  kQmon = 1u << 5,        // send-queue push/pop/purge and thresholds
  kFme = 1u << 6,         // probes and enforcement actions
  kFrontend = 1u << 7,    // FE monitor masking decisions
  kWorkload = 1u << 8,    // client request lifecycle
  kFault = 1u << 9,       // injector fire() inject/repair
  kHarness = 1u << 10,    // testbed markers and audit ticks
};

inline constexpr std::uint32_t kAllCategories = (1u << 11) - 1;
/// Everything except the per-event kSim firehose: the default audit mask.
inline constexpr std::uint32_t kProtocolCategories =
    kAllCategories & ~static_cast<std::uint32_t>(Category::kSim);

/// Event kinds. Payload conventions (fields a/b/c) are documented per kind;
/// cooperation sets and membership views travel as 64-bit node bitmasks.
enum class Kind : std::uint16_t {
  kNone = 0,
  // --- sim ---
  kSimStep,  // a = event seq
  // --- net ---
  kLinkDown,      // node = link
  kLinkUp,        // node = link
  kSwitchDown,    // node = -1
  kSwitchUp,      // node = -1
  kLinkDegraded,  // node = link, a = loss * 1e6
  kLinkHealed,    // node = link
  kFlapStart,     // node = link
  kFlapStop,      // node = link
  kPacketLost,    // node = src, a = dst, b = port
  // --- disk ---
  kDiskFail,     // node = owner, a = disk index on node
  kDiskDegrade,  // node = owner, a = disk index, b = slow factor * 100
  kDiskRepair,   // node = owner, a = disk index
  // --- press ---
  kPressStart,        // a = coop mask
  kPressStop,
  kPressHang,
  kPressUnhang,
  kPressBlocked,
  kPressUnblocked,
  kPressAddMember,    // a = added node, b = coop mask after
  kPressExclude,      // a = excluded node, b = coop mask after
  kPressSelfExclude,  // b = coop mask after (singleton)
  kPressDetect,       // a = suspected predecessor
  kPressHbSeen,       // a = sender (or grace-reset neighbour)
  kPressRejoin,       // b = coop mask after
  // --- qmon (send queue to one peer; a = peer throughout) ---
  kQueuePush,      // b = queued requests after, c = queued total after
  kQueuePop,       // b = queued requests after, c = queued total after
  kQueuePurge,     // a = peer whose queue was dropped
  kQueueReroute,   // b = queued requests at decision
  kQueueFail,      // b = queued requests, c = queued total
  kQueueSlowPeer,  // a = limping peer
  // --- membership ---
  kMemStart,        // a = initial view mask (singleton)
  kMemStop,
  kMemViewInstall,  // a = view mask, b = view version
  kMemCommit,       // a = change id, b = committed view mask, c = add flag
  kMemSuspect,      // a = suspected neighbour
  kMemDownReport,   // a = reported node
  kMemMerge,        // a = announcing foreign member
  // --- fme ---
  kFmeStart,
  kFmeProbeOk,
  kFmeProbeFail,
  kFmeRestart,
  kFmeOffline,
  // --- frontend (node = backend) ---
  kFeMask,
  kFeUnmask,
  // --- workload (node = client host; a = request id) ---
  kReqSend,
  kReqOk,
  kReqFail,  // b = failure reason
  // --- fault (node = component; a = fault type) ---
  kFaultInject,
  kFaultRepair,
  // --- harness ---
  kTestbedStart,
  kOperatorReset,
  kAuditTick,
  kKindCount,
};

const char* to_string(Category category);
const char* to_string(Kind kind);

/// Bit for a node in a 64-bit set mask; nodes outside [0, 64) do not fit
/// and map to no bit (set invariants are skipped for them).
constexpr std::uint64_t node_bit(std::int64_t node) {
  return (node >= 0 && node < 64) ? (std::uint64_t{1} << node) : 0;
}

/// One fixed-size binary trace record. All payloads are integers so the
/// text/JSONL renderings are bit-stable across platforms.
struct TraceRecord {
  sim::Time at = 0;
  std::uint64_t seq = 0;  // per-tracer emission counter
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
  std::int32_t node = -1;
  Category category = Category::kSim;
  Kind kind = Kind::kNone;

  bool operator==(const TraceRecord&) const = default;
};

/// Receives every retained record as it is emitted (the auditor's hook).
class TraceListener {
 public:
  virtual ~TraceListener() = default;
  virtual void on_record(const TraceRecord& record) = 0;
};

struct TracerOptions {
  std::uint32_t mask = kProtocolCategories;
  std::size_t capacity = std::size_t{1} << 16;  // records retained
};

/// Ring-buffered structured trace. The buffer is allocated once up front,
/// so emit() never allocates; when the ring is full the oldest records are
/// overwritten (the retained window is what violation reports show).
class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});

  bool wants(Category category) const {
    return (options_.mask & static_cast<std::uint32_t>(category)) != 0;
  }
  std::uint32_t mask() const { return options_.mask; }
  void set_mask(std::uint32_t mask) { options_.mask = mask; }

  void add_listener(TraceListener* listener);
  void remove_listener(TraceListener* listener);

  /// Appends a record unconditionally (callers check wants() first; the
  /// emit() helper below does both).
  void emit(sim::Time at, Category category, Kind kind, std::int32_t node,
            std::int64_t a, std::int64_t b, std::int64_t c);

  std::uint64_t emitted() const { return seq_; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return ring_.size(); }

  /// Retained records, oldest first.
  std::vector<TraceRecord> snapshot() const;
  /// The most recent min(n, size()) records, oldest first.
  std::vector<TraceRecord> last(std::size_t n) const;
  void clear();

  void export_text(std::ostream& out) const;
  void export_jsonl(std::ostream& out) const;

 private:
  TracerOptions options_;
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;  // next write slot
  std::size_t count_ = 0;  // retained records (<= capacity)
  std::uint64_t seq_ = 0;
  std::vector<TraceListener*> listeners_;
};

/// `<at> <category> <kind> node=<n> a=<a> b=<b> c=<c>` (golden-trace form).
std::string format_record(const TraceRecord& record);
std::string to_jsonl(const TraceRecord& record);
/// Strict inverse of to_jsonl(); false on any mismatch.
bool parse_jsonl(std::string_view line, TraceRecord& out);

/// Mask-gated emit bound to a Simulator: free when no tracer is attached
/// or the category is masked out (one pointer load and a branch, no
/// allocation either way).
inline void emit(sim::Simulator& simulator, Category category, Kind kind,
                 std::int32_t node, std::int64_t a = 0, std::int64_t b = 0,
                 std::int64_t c = 0) {
  Tracer* tracer = simulator.tracer();
  if (tracer == nullptr || !tracer->wants(category)) return;
  tracer->emit(simulator.now(), category, kind, node, a, b, c);
}

}  // namespace availsim::trace
