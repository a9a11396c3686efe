// Golden-trace regression tests: two scripted COOP runs — a SCSI disk
// fault and a node-freeze splinter — export their protocol traces in the
// compact text form, which must match the checked-in goldens byte for
// byte. Any change to detector timing, protocol ordering or trace emission
// shows up here as a diff against tests/golden/*.trace.
//
// Regenerating after an intentional change:
//   AVAILSIM_REGOLD=1 ./golden_trace_test && git diff tests/golden/
//
// The golden mask excludes the per-request firehose (workload, qmon, net)
// and the harness markers, so the files stay small and identical whether
// or not AVAILSIM_AUDIT=1 adds its periodic audit ticks. The request
// outcomes are pinned instead by one summary line at the end of each file:
// totals by reason and an FNV-1a hash of the per-second recorder bins.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "availsim/fault/injector.hpp"
#include "availsim/harness/testbed.hpp"
#include "availsim/sim/rng.hpp"
#include "availsim/sim/simulator.hpp"
#include "availsim/trace/trace.hpp"
#include "availsim/workload/recorder.hpp"

#ifndef AVAILSIM_GOLDEN_DIR
#error "golden_trace_test needs AVAILSIM_GOLDEN_DIR (set in tests/CMakeLists.txt)"
#endif

namespace availsim {
namespace {

constexpr std::uint32_t kGoldenMask =
    static_cast<std::uint32_t>(trace::Category::kDisk) |
    static_cast<std::uint32_t>(trace::Category::kPress) |
    static_cast<std::uint32_t>(trace::Category::kMembership) |
    static_cast<std::uint32_t>(trace::Category::kFme) |
    static_cast<std::uint32_t>(trace::Category::kFrontend) |
    static_cast<std::uint32_t>(trace::Category::kFault);

harness::TestbedOptions golden_options(std::uint64_t seed) {
  harness::TestbedOptions opts;
  opts.config = harness::ServerConfig::kCoop;
  opts.base_nodes = 4;
  opts.client_hosts = 2;
  opts.offered_rps = 400.0;
  opts.warmup = 120 * sim::kSecond;
  opts.seed = seed;
  opts.trace = true;
  opts.trace_mask = kGoldenMask;
  opts.trace_capacity = std::size_t{1} << 18;
  return opts;
}

// One line: offered, successes and failures by reason, then an FNV-1a hash
// of the per-second offered, success and failed bins, in that order.
std::string outcome_summary(const workload::Recorder& rec) {
  std::uint64_t h = 1469598103934665603ull;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (const auto* bins :
       {&rec.offered_bins(), &rec.success_bins(), &rec.failed_bins()}) {
    add(bins->size());
    for (std::uint32_t n : *bins) add(n);
  }
  std::ostringstream out;
  out << "outcomes offered=" << rec.total_offered()
      << " success=" << rec.total_success() << " refused="
      << rec.failures_by_reason(workload::FailureReason::kRefused)
      << " connect_timeout="
      << rec.failures_by_reason(workload::FailureReason::kConnectTimeout)
      << " completion_timeout="
      << rec.failures_by_reason(workload::FailureReason::kCompletionTimeout)
      << " bins_fnv1a=" << std::hex << h << "\n";
  return out.str();
}

std::string run_scripted(const harness::TestbedOptions& opts,
                         fault::FaultType type, int component,
                         sim::Time duration) {
  sim::Simulator sim;
  harness::Testbed tb(sim, opts);
  sim::Rng rng(opts.seed);
  fault::FaultInjector injector(sim, tb, rng.fork(1));
  injector.schedule_fault(opts.warmup + 60 * sim::kSecond, type, component,
                          duration);
  tb.start();
  sim.run_until(opts.warmup + 360 * sim::kSecond);
  std::ostringstream out;
  tb.tracer()->export_text(out);
  out << outcome_summary(tb.recorder());
  return out.str();
}

void compare_against_golden(const std::string& name,
                            const std::string& text) {
  const std::string path = std::string(AVAILSIM_GOLDEN_DIR) + "/" + name;
  if (const char* regold = std::getenv("AVAILSIM_REGOLD");
      regold != nullptr && regold[0] != '\0' &&
      std::strcmp(regold, "0") != 0) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << text;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path
                  << " — run with AVAILSIM_REGOLD=1 to generate it";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();
  if (text == golden) return;

  // Report the first diverging line instead of dumping both traces.
  std::istringstream got(text), want(golden);
  std::string got_line, want_line;
  int line = 0;
  for (;;) {
    ++line;
    const bool g = static_cast<bool>(std::getline(got, got_line));
    const bool w = static_cast<bool>(std::getline(want, want_line));
    if (!g && !w) break;
    if (!g || !w || got_line != want_line) {
      FAIL() << name << " diverges from its golden at line " << line
             << ":\n  golden: " << (w ? want_line : "<end of file>")
             << "\n  actual: " << (g ? got_line : "<end of file>")
             << "\nIntentional change? regenerate with AVAILSIM_REGOLD=1";
    }
  }
  FAIL() << name << " differs from its golden (same lines, different bytes)";
}

TEST(GoldenTraceTest, ScriptedDiskFault) {
  const harness::TestbedOptions opts = golden_options(7);
  const std::string text =
      run_scripted(opts, fault::FaultType::kScsiTimeout,
                   1 * opts.press.disk_count, 180 * sim::kSecond);
  // Structural sanity before the byte comparison: the fault, the disk's
  // transition and its repair must all appear.
  EXPECT_NE(text.find("fault_inject"), std::string::npos);
  EXPECT_NE(text.find("disk_fail"), std::string::npos);
  EXPECT_NE(text.find("disk_repair"), std::string::npos);
  EXPECT_NE(text.find("fault_repair"), std::string::npos);
  compare_against_golden("disk_fault.trace", text);
}

TEST(GoldenTraceTest, NodeFreezeSplinter) {
  if (const char* q = std::getenv("AVAILSIM_QUICK");
      q != nullptr && q[0] != '\0' && std::strcmp(q, "0") != 0) {
    GTEST_SKIP() << "AVAILSIM_QUICK=1: the disk-fault golden covers the "
                    "byte-identity wall in quick lanes";
  }
  const harness::TestbedOptions opts = golden_options(11);
  const std::string text = run_scripted(opts, fault::FaultType::kNodeFreeze,
                                        1, 120 * sim::kSecond);
  // The freeze must drive the ring through detection, exclusion and the
  // post-thaw rejoin — the splinter lifecycle the paper dissects.
  EXPECT_NE(text.find("press_detect"), std::string::npos);
  EXPECT_NE(text.find("press_exclude"), std::string::npos);
  EXPECT_NE(text.find("press_rejoin"), std::string::npos);
  compare_against_golden("splinter.trace", text);
}

}  // namespace
}  // namespace availsim
