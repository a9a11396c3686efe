// Tests for the structured trace subsystem (trace/trace.hpp): ring
// retention and wraparound, category filtering, text/JSONL renderings and
// the strict JSONL parser, listener delivery, and the zero-allocation
// guarantee of the emit() fast path.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "availsim/sim/simulator.hpp"
#include "availsim/trace/trace.hpp"

namespace availsim {
namespace {

using trace::Category;
using trace::Kind;
using trace::TraceRecord;
using trace::Tracer;
using trace::TracerOptions;

TraceRecord make_record(sim::Time at, std::int64_t a) {
  TraceRecord r;
  r.at = at;
  r.a = a;
  r.b = a * 2;
  r.c = -a;
  r.node = 3;
  r.category = Category::kQmon;
  r.kind = Kind::kQueuePush;
  return r;
}

TEST(TracerTest, RetainsRecordsOldestFirst) {
  Tracer tracer(TracerOptions{trace::kAllCategories, 16});
  for (int i = 0; i < 5; ++i) {
    tracer.emit(i * 10, Category::kPress, Kind::kPressHbSeen, i, i + 100, 0, 0);
  }
  EXPECT_EQ(tracer.size(), 5u);
  EXPECT_EQ(tracer.emitted(), 5u);
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(records[i].at, i * 10);
    EXPECT_EQ(records[i].a, i + 100);
    EXPECT_EQ(records[i].seq, static_cast<std::uint64_t>(i));
  }
}

TEST(TracerTest, RingWrapsAroundKeepingNewest) {
  Tracer tracer(TracerOptions{trace::kAllCategories, 8});
  for (int i = 0; i < 20; ++i) {
    tracer.emit(i, Category::kNet, Kind::kPacketLost, 0, i, 0, 0);
  }
  EXPECT_EQ(tracer.emitted(), 20u);
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.capacity(), 8u);
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(records[i].a, 12 + i) << "slot " << i;
  }
  const auto tail = tracer.last(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].a, 17);
  EXPECT_EQ(tail[2].a, 19);
  // Asking for more than is retained clamps rather than fabricating.
  EXPECT_EQ(tracer.last(100).size(), 8u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(TracerTest, EmitHelperFiltersByCategoryMask) {
  sim::Simulator sim;
  Tracer tracer(
      TracerOptions{static_cast<std::uint32_t>(Category::kPress), 64});
  sim.set_tracer(&tracer);
  sim.schedule_at(5 * sim::kSecond, [&] {
    trace::emit(sim, Category::kQmon, Kind::kQueuePush, 1, 2, 1, 1);
    trace::emit(sim, Category::kPress, Kind::kPressHbSeen, 1, 0);
  });
  sim.run();
  ASSERT_EQ(tracer.size(), 1u);
  const auto records = tracer.snapshot();
  EXPECT_EQ(records[0].kind, Kind::kPressHbSeen);
  EXPECT_EQ(records[0].at, 5 * sim::kSecond);

  // Widen to every protocol category (kSim stays out: with it on, the
  // event-loop step itself would add a kSimStep record here).
  tracer.set_mask(trace::kProtocolCategories);
  sim.schedule_at(6 * sim::kSecond, [&] {
    trace::emit(sim, Category::kQmon, Kind::kQueuePop, 1, 2, 0, 0);
  });
  sim.run();
  EXPECT_EQ(tracer.size(), 2u);
  sim.set_tracer(nullptr);
}

TEST(TracerTest, DefaultMaskExcludesSimFirehose) {
  EXPECT_EQ(trace::kProtocolCategories & static_cast<std::uint32_t>(
                                              Category::kSim),
            0u);
  Tracer tracer;
  EXPECT_FALSE(tracer.wants(Category::kSim));
  EXPECT_TRUE(tracer.wants(Category::kQmon));
  EXPECT_TRUE(tracer.wants(Category::kMembership));
}

TEST(TracerTest, ListenerSeesRetainedRecordsUntilRemoved) {
  struct Collector : trace::TraceListener {
    std::vector<TraceRecord> records;
    void on_record(const TraceRecord& record) override {
      records.push_back(record);
    }
  };
  Tracer tracer(TracerOptions{trace::kAllCategories, 8});
  Collector collector;
  tracer.add_listener(&collector);
  tracer.emit(1, Category::kDisk, Kind::kDiskFail, 2, 0, 0, 0);
  tracer.remove_listener(&collector);
  tracer.emit(2, Category::kDisk, Kind::kDiskRepair, 2, 0, 0, 0);
  ASSERT_EQ(collector.records.size(), 1u);
  EXPECT_EQ(collector.records[0].kind, Kind::kDiskFail);
}

TEST(TracerTest, EmitNeverAllocates) {
  sim::Simulator sim;

  // 1) No tracer attached: the inline helper is a pointer load + branch.
  sim.schedule_at(1, [&] {
    const auto before = allocation_count();
    for (int i = 0; i < 1000; ++i) {
      trace::emit(sim, Category::kQmon, Kind::kQueuePush, 0, i, 0, 0);
    }
    EXPECT_EQ(allocation_count(), before)
        << "emit with no tracer attached allocated";
  });
  sim.run();

  // 2) Tracer attached but the category masked out.
  Tracer masked(
      TracerOptions{static_cast<std::uint32_t>(Category::kPress), 1 << 12});
  sim.set_tracer(&masked);
  sim.schedule_at(2, [&] {
    const auto before = allocation_count();
    for (int i = 0; i < 1000; ++i) {
      trace::emit(sim, Category::kQmon, Kind::kQueuePush, 0, i, 0, 0);
    }
    EXPECT_EQ(allocation_count(), before)
        << "emit of a masked-out category allocated";
  });
  sim.run();
  EXPECT_EQ(masked.size(), 0u);

  // 3) Records actually retained: the ring is preallocated, so even the
  // slow path must not touch the heap.
  Tracer open(TracerOptions{trace::kProtocolCategories, 1 << 12});
  sim.set_tracer(&open);
  sim.schedule_at(3, [&] {
    const auto before = allocation_count();
    for (int i = 0; i < 1000; ++i) {
      trace::emit(sim, Category::kQmon, Kind::kQueuePush, 0, i, 0, 0);
    }
    EXPECT_EQ(allocation_count(), before)
        << "retained emit allocated despite the preallocated ring";
  });
  sim.run();
  EXPECT_EQ(open.size(), 1000u);
  sim.set_tracer(nullptr);
}

TEST(TraceFormatTest, TextRendering) {
  TraceRecord r = make_record(1234567, 42);
  EXPECT_EQ(trace::format_record(r),
            "1234567 qmon queue_push node=3 a=42 b=84 c=-42");
}

TEST(TraceFormatTest, JsonlRoundTripsEveryField) {
  const std::vector<TraceRecord> cases = {
      make_record(0, 0),
      make_record(86400LL * sim::kSecond, 9999999),
      make_record(17, -5),
  };
  for (TraceRecord r : cases) {
    r.seq = 77;
    TraceRecord parsed;
    ASSERT_TRUE(trace::parse_jsonl(trace::to_jsonl(r), parsed))
        << trace::to_jsonl(r);
    EXPECT_EQ(parsed, r) << trace::to_jsonl(r);
  }
}

TEST(TraceFormatTest, JsonlParserIsStrict) {
  TraceRecord r = make_record(10, 1);
  const std::string good = trace::to_jsonl(r);
  TraceRecord out;
  EXPECT_TRUE(trace::parse_jsonl(good, out));
  EXPECT_FALSE(trace::parse_jsonl("", out));
  EXPECT_FALSE(trace::parse_jsonl("{}", out));
  EXPECT_FALSE(trace::parse_jsonl(good.substr(0, good.size() - 1), out));
  EXPECT_FALSE(trace::parse_jsonl(good + "x", out));
  std::string bad_kind = good;
  const auto pos = bad_kind.find("queue_push");
  ASSERT_NE(pos, std::string::npos);
  bad_kind.replace(pos, 10, "not_a_kind");
  EXPECT_FALSE(trace::parse_jsonl(bad_kind, out));
}

TEST(TraceFormatTest, ExportJsonlMatchesSnapshot) {
  Tracer tracer(TracerOptions{trace::kAllCategories, 32});
  for (int i = 0; i < 6; ++i) {
    tracer.emit(i * 7, Category::kMembership, Kind::kMemViewInstall, i,
                0b1111, i + 1, 0);
  }
  std::ostringstream out;
  tracer.export_jsonl(out);
  std::istringstream in(out.str());
  std::string line;
  std::vector<TraceRecord> parsed;
  while (std::getline(in, line)) {
    TraceRecord r;
    ASSERT_TRUE(trace::parse_jsonl(line, r)) << line;
    parsed.push_back(r);
  }
  EXPECT_EQ(parsed, tracer.snapshot());
}

}  // namespace
}  // namespace availsim
