#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "availsim/net/network.hpp"
#include "availsim/trace/trace.hpp"
#include "availsim/workload/client.hpp"
#include "availsim/workload/recorder.hpp"
#include "availsim/workload/zipf.hpp"

namespace availsim::workload {
namespace {

TEST(Zipf, CdfIsNormalized) {
  ZipfSampler z(1000, 0.8);
  EXPECT_DOUBLE_EQ(z.coverage(1000), 1.0);
  EXPECT_GT(z.coverage(10), 10 * z.pmf(999));
}

TEST(Zipf, HeadIsHeavierThanTail) {
  ZipfSampler z(10000, 0.8);
  EXPECT_GT(z.pmf(0), z.pmf(1));
  EXPECT_GT(z.pmf(1), z.pmf(100));
  EXPECT_GT(z.coverage(1000), 0.3);  // top 10% carries a big share
}

TEST(Zipf, SamplingMatchesPmf) {
  ZipfSampler z(100, 1.0);
  sim::Rng rng(7);
  std::vector<int> counts(100, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(z.sample(rng))];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), z.pmf(0), 0.01);
  EXPECT_NEAR(counts[9] / static_cast<double>(n), z.pmf(9), 0.005);
}

TEST(Zipf, ZeroExponentIsUniform) {
  ZipfSampler z(50, 0.0);
  EXPECT_NEAR(z.pmf(0), 0.02, 1e-12);
  EXPECT_NEAR(z.pmf(49), 0.02, 1e-12);
}

class ZipfCoverageTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfCoverageTest, CoverageIsMonotone) {
  ZipfSampler z(5000, GetParam());
  double prev = 0;
  for (int k : {1, 10, 100, 1000, 5000}) {
    const double c = z.coverage(k);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfCoverageTest,
                         ::testing::Values(0.0, 0.5, 0.75, 1.0, 1.2));

TEST(Recorder, BinsAndWindows) {
  sim::Simulator sim;
  Recorder rec(sim);
  sim.schedule_at(500 * sim::kMillisecond, [&] {
    rec.record_offered();
    rec.record_success();
  });
  sim.schedule_at(1500 * sim::kMillisecond, [&] {
    rec.record_offered();
    rec.record_failure(FailureReason::kCompletionTimeout);
  });
  sim.run();
  EXPECT_EQ(rec.successes_in(0, sim::kSecond), 1u);
  EXPECT_EQ(rec.successes_in(sim::kSecond, 2 * sim::kSecond), 0u);
  EXPECT_EQ(rec.offered_in(0, 2 * sim::kSecond), 2u);
  EXPECT_DOUBLE_EQ(rec.availability(0, 2 * sim::kSecond), 0.5);
  EXPECT_EQ(rec.failures_by_reason(FailureReason::kCompletionTimeout), 1u);
  EXPECT_DOUBLE_EQ(rec.mean_throughput(0, 2 * sim::kSecond), 0.5);
}

TEST(Recorder, EmptyWindowAvailabilityIsNaN) {
  // A window that saw zero offered requests measured nothing; it must not
  // read as 100% available (the old behaviour returned 1.0).
  sim::Simulator sim;
  Recorder rec(sim);
  EXPECT_TRUE(std::isnan(rec.availability(0, sim::kSecond)));
}

TEST(Recorder, NonAlignedWindowExcludesEdgeBins) {
  // Regression for the edge-bin rounding bug: sum() used to take
  // floor(from / width) and ceil(to / width), so a non-bin-aligned window
  // swallowed both partially covered edge bins whole. Events at 0.5 s and
  // 1.5 s sit outside [0.7 s, 1.0 s) yet the old rounding counted both.
  sim::Simulator sim;
  Recorder rec(sim);
  sim.schedule_at(500 * sim::kMillisecond, [&] {
    rec.record_offered();
    rec.record_success();
  });
  sim.schedule_at(1500 * sim::kMillisecond, [&] {
    rec.record_offered();
    rec.record_success();
  });
  sim.run();
  // No bin lies fully inside [0.7 s, 1.0 s): nothing may be counted.
  EXPECT_EQ(rec.successes_in(700 * sim::kMillisecond, sim::kSecond), 0u);
  // [0.5 s, 1.5 s) fully contains no bin either — bin 0 starts before it
  // and bin 1 ends after it.
  EXPECT_EQ(
      rec.offered_in(500 * sim::kMillisecond, 1500 * sim::kMillisecond), 0u);
  // [0.5 s, 2.0 s) fully contains only bin 1 (the 1.5 s event).
  EXPECT_EQ(
      rec.successes_in(500 * sim::kMillisecond, 2 * sim::kSecond), 1u);
  // Bin-aligned windows are exact, as before.
  EXPECT_EQ(rec.successes_in(0, 2 * sim::kSecond), 2u);
}

class ClientFixture : public ::testing::Test {
 protected:
  ClientFixture()
      : net_(sim_, sim::Rng(1), net_params()),
        server_(sim_, 0, "server"),
        client_host_(sim_, 1, "client"),
        zipf_(100, 0.8),
        recorder_(sim_) {
    net_.attach(server_);
    net_.attach(client_host_);
    client_ = std::make_unique<Client>(sim_, net_, client_host_, sim::Rng(2),
                                       params(), zipf_, recorder_);
    client_->set_destinations({0}, net::ports::kPressHttp);
  }

  static net::NetworkParams net_params() {
    net::NetworkParams p;
    p.max_jitter = 0;
    return p;
  }

  static Client::Params params() {
    Client::Params p;
    p.rate = 50.0;
    return p;
  }

  /// A trivially correct server: echoes a reply for every request.
  void serve_all() {
    server_.bind(net::ports::kPressHttp, [this](const net::Packet& p) {
      const auto& req = net::body_as<HttpRequest>(p);
      net_.send(0, req.client, net::ports::kClientReply, 27 * 1024,
                net::make_body<HttpReply>(HttpReply{req.request_id}));
    });
  }

  /// A server that keeps every request and replies only when told to.
  void hold_all() {
    server_.bind(net::ports::kPressHttp, [this](const net::Packet& p) {
      held_.push_back(net::body_as<HttpRequest>(p).request_id);
    });
  }

  void reply(std::uint64_t request_id) {
    net_.send(0, 1, net::ports::kClientReply, 27 * 1024,
              net::make_body<HttpReply>(HttpReply{request_id}));
  }

  /// Sends requests for `seconds`, then waits until all have arrived.
  void send_for(double seconds) {
    client_->start();
    sim_.run_until(sim_.now() + sim::from_seconds(seconds));
    client_->stop();
    sim_.run_until(sim_.now() + 100 * sim::kMillisecond);
  }

  sim::Simulator sim_;
  net::Network net_;
  net::Host server_;
  net::Host client_host_;
  ZipfSampler zipf_;
  Recorder recorder_;
  std::unique_ptr<Client> client_;
  std::vector<std::uint64_t> held_;
};

TEST_F(ClientFixture, PoissonRateIsApproximatelyHonored) {
  serve_all();
  client_->start();
  sim_.run_until(60 * sim::kSecond);
  client_->stop();
  const double rate = recorder_.total_offered() / 60.0;
  EXPECT_NEAR(rate, 50.0, 5.0);
  EXPECT_EQ(recorder_.total_failed(), 0u);
  EXPECT_GT(recorder_.total_success(), 0u);
}

TEST_F(ClientFixture, RestartRightAfterStopKeepsOneArrivalStream) {
  // stop() must drop the arrival already scheduled: otherwise a start()
  // before it fires runs two streams and offers twice the rate.
  serve_all();
  client_->start();
  sim_.run_until(sim::kSecond);
  client_->stop();
  client_->start();
  sim_.run_until(61 * sim::kSecond);
  const double rate = recorder_.total_offered() / 61.0;
  EXPECT_NEAR(rate, 50.0, 5.0);
}

TEST_F(ClientFixture, DeadProcessYieldsRefusedFailures) {
  // No handler bound: connection refused, fast-fail.
  client_->start();
  sim_.run_until(10 * sim::kSecond);
  client_->stop();
  sim_.run_until(20 * sim::kSecond);
  EXPECT_EQ(recorder_.total_success(), 0u);
  EXPECT_GT(recorder_.failures_by_reason(FailureReason::kRefused), 0u);
  EXPECT_EQ(recorder_.failures_by_reason(FailureReason::kCompletionTimeout), 0u);
}

TEST_F(ClientFixture, UnreachableServerYieldsConnectTimeouts) {
  serve_all();
  net_.set_link_up(0, false);
  client_->start();
  sim_.run_until(10 * sim::kSecond);
  client_->stop();
  sim_.run_until(20 * sim::kSecond);
  EXPECT_EQ(recorder_.total_success(), 0u);
  EXPECT_GT(recorder_.failures_by_reason(FailureReason::kConnectTimeout), 0u);
}

TEST_F(ClientFixture, SilentServerYieldsCompletionTimeouts) {
  // Handler bound but never replies (hung application).
  server_.bind(net::ports::kPressHttp, [](const net::Packet&) {});
  client_->start();
  sim_.run_until(10 * sim::kSecond);
  client_->stop();
  sim_.run_until(20 * sim::kSecond);
  EXPECT_EQ(recorder_.total_success(), 0u);
  EXPECT_GT(recorder_.failures_by_reason(FailureReason::kCompletionTimeout), 0u);
  EXPECT_EQ(client_->outstanding(), 0u);
}

TEST_F(ClientFixture, RoundRobinSpreadsOverDestinations) {
  net::Host second(sim_, 2, "server2");
  net_.attach(second);
  int to_first = 0, to_second = 0;
  server_.bind(net::ports::kPressHttp,
               [&](const net::Packet&) { ++to_first; });
  second.bind(net::ports::kPressHttp,
              [&](const net::Packet&) { ++to_second; });
  client_->set_destinations({0, 2}, net::ports::kPressHttp);
  client_->start();
  sim_.run_until(20 * sim::kSecond);
  client_->stop();
  EXPECT_NEAR(to_first, to_second, 1);
}

TEST_F(ClientFixture, OutOfOrderRepliesCloseTheirOwnRequests) {
  hold_all();
  send_for(2.0);
  const std::size_t n = held_.size();
  ASSERT_GT(n, 20u);
  EXPECT_EQ(client_->requests_sent(), n);
  EXPECT_EQ(client_->outstanding(), n);
  // Close every odd id first: closed ids now sit between open ones.
  std::size_t open = n;
  for (std::uint64_t id : held_) {
    if (id % 2 == 1) {
      reply(id);
      --open;
    }
  }
  sim_.run_until(sim_.now() + 100 * sim::kMillisecond);
  EXPECT_EQ(client_->outstanding(), open);
  EXPECT_EQ(recorder_.total_success(), n - open);
  // Then the rest, newest first.
  for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
    if (*it % 2 == 0) reply(*it);
  }
  sim_.run_until(sim_.now() + 100 * sim::kMillisecond);
  EXPECT_EQ(client_->outstanding(), 0u);
  EXPECT_EQ(recorder_.total_success(), n);
  EXPECT_EQ(recorder_.total_failed(), 0u);
}

TEST_F(ClientFixture, LateReplyAfterCompletionTimeoutIsIgnored) {
  hold_all();
  send_for(1.0);
  const std::size_t n = held_.size();
  ASSERT_GT(n, 10u);
  sim_.run_until(8 * sim::kSecond);  // past every 6 s completion timeout
  EXPECT_EQ(recorder_.failures_by_reason(FailureReason::kCompletionTimeout),
            n);
  EXPECT_EQ(client_->outstanding(), 0u);
  // New requests are open while the old ones' replies finally arrive.
  const std::vector<std::uint64_t> late = held_;
  send_for(1.0);
  const std::size_t fresh = held_.size() - n;
  ASSERT_GT(fresh, 10u);
  for (std::uint64_t id : late) reply(id);
  sim_.run_until(sim_.now() + 100 * sim::kMillisecond);
  EXPECT_EQ(recorder_.total_success(), 0u);
  EXPECT_EQ(recorder_.total_failed(), n);
  EXPECT_EQ(client_->outstanding(), fresh);
}

/// Send time of every request and the time and reason of every failure,
/// read back from the workload trace.
struct Lifecycle {
  std::vector<sim::Time> sent;  // by request id
  std::vector<std::uint64_t> failed_ids;  // in emission order
  std::vector<sim::Time> failed_at;
  std::vector<std::int64_t> reasons;
};

Lifecycle read_lifecycle(const trace::Tracer& tracer) {
  Lifecycle l;
  for (const trace::TraceRecord& r : tracer.snapshot()) {
    if (r.kind == trace::Kind::kReqSend) {
      EXPECT_EQ(static_cast<std::size_t>(r.a), l.sent.size());
      l.sent.push_back(r.at);
    } else if (r.kind == trace::Kind::kReqFail) {
      l.failed_ids.push_back(static_cast<std::uint64_t>(r.a));
      l.failed_at.push_back(r.at);
      l.reasons.push_back(r.b);
    }
  }
  return l;
}

TEST_F(ClientFixture, CompletionTimeoutsFireSixSecondsAfterSendInIdOrder) {
  trace::Tracer tracer(trace::TracerOptions{
      static_cast<std::uint32_t>(trace::Category::kWorkload), 1u << 12});
  sim_.set_tracer(&tracer);
  // Odd ids are answered at once, so the walk steps over closed entries;
  // even ids are never answered.
  server_.bind(net::ports::kPressHttp, [this](const net::Packet& p) {
    const std::uint64_t id = net::body_as<HttpRequest>(p).request_id;
    if (id % 2 == 1) reply(id);
  });
  send_for(3.0);
  sim_.run_until(sim_.now() + 7 * sim::kSecond);
  const Lifecycle l = read_lifecycle(tracer);
  ASSERT_GT(l.sent.size(), 50u);
  ASSERT_EQ(l.failed_ids.size(), (l.sent.size() + 1) / 2);
  for (std::size_t i = 0; i < l.failed_ids.size(); ++i) {
    const std::uint64_t id = l.failed_ids[i];
    EXPECT_EQ(id, 2 * i);
    EXPECT_EQ(l.failed_at[i], l.sent[id] + 6 * sim::kSecond) << "id " << id;
    EXPECT_EQ(l.reasons[i],
              static_cast<std::int64_t>(FailureReason::kCompletionTimeout));
  }
  EXPECT_EQ(recorder_.total_success(), l.sent.size() / 2);
  EXPECT_EQ(client_->outstanding(), 0u);
  sim_.set_tracer(nullptr);
}

TEST_F(ClientFixture, ConnectTimeoutsFireTwoSecondsAfterSendInIdOrder) {
  trace::Tracer tracer(trace::TracerOptions{
      static_cast<std::uint32_t>(trace::Category::kWorkload), 1u << 12});
  sim_.set_tracer(&tracer);
  serve_all();
  net_.set_link_up(0, false);
  send_for(3.0);
  sim_.run_until(sim_.now() + 7 * sim::kSecond);
  const Lifecycle l = read_lifecycle(tracer);
  ASSERT_GT(l.sent.size(), 50u);
  ASSERT_EQ(l.failed_ids.size(), l.sent.size());
  for (std::size_t i = 0; i < l.failed_ids.size(); ++i) {
    EXPECT_EQ(l.failed_ids[i], i);
    EXPECT_EQ(l.failed_at[i], l.sent[i] + 2 * sim::kSecond) << "id " << i;
    EXPECT_EQ(l.reasons[i],
              static_cast<std::int64_t>(FailureReason::kConnectTimeout));
  }
  EXPECT_EQ(client_->outstanding(), 0u);
  sim_.set_tracer(nullptr);
}

TEST_F(ClientFixture, OpenRequestsHoldNoEventsOfTheirOwn) {
  // The client keeps one arrival and at most one deadline event per
  // timeout kind, however many requests are open. Sampled on receipt;
  // requests sent but not yet received each hold their delivery event.
  std::size_t max_own = 0;
  server_.bind(net::ports::kPressHttp, [this, &max_own](const net::Packet& p) {
    held_.push_back(net::body_as<HttpRequest>(p).request_id);
    const std::size_t in_flight = client_->requests_sent() - held_.size();
    max_own = std::max(max_own, sim_.pending() - in_flight);
  });
  send_for(4.0);
  ASSERT_GT(held_.size(), 150u);
  EXPECT_EQ(client_->outstanding(), held_.size());
  EXPECT_LE(max_own, 3u);
  EXPECT_LE(sim_.pending(), 3u);
}

TEST_F(ClientFixture, RecoveryAfterRepairResumesSuccesses) {
  serve_all();
  net_.set_link_up(0, false);
  client_->start();
  sim_.run_until(10 * sim::kSecond);
  net_.set_link_up(0, true);
  sim_.run_until(30 * sim::kSecond);
  client_->stop();
  sim_.run_until(40 * sim::kSecond);
  EXPECT_GT(recorder_.successes_in(10 * sim::kSecond, 30 * sim::kSecond), 0u);
}

}  // namespace
}  // namespace availsim::workload
