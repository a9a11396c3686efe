#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "availsim/workload/client.hpp"
#include "availsim/workload/trace.hpp"
#include "availsim/workload/zipf.hpp"

namespace availsim::workload {
namespace {

TEST(Trace, SynthesizeMatchesRateAndDuration) {
  HotColdSampler pop(1000, 100, 0.8);
  Trace t = Trace::synthesize(pop, sim::Rng(1), 200.0, 60 * sim::kSecond);
  EXPECT_NEAR(static_cast<double>(t.size()), 200.0 * 60, 600);
  EXPECT_LT(t.duration(), 60 * sim::kSecond);
  EXPECT_NEAR(t.rate(), 200.0, 20.0);
}

TEST(Trace, EntriesAreTimeOrdered) {
  ZipfSampler pop(500, 0.8);
  Trace t = Trace::synthesize(pop, sim::Rng(2), 100.0, 30 * sim::kSecond);
  sim::Time last = 0;
  for (const auto& e : t.entries()) {
    EXPECT_GE(e.at, last);
    last = e.at;
    EXPECT_GE(e.file, 0);
    EXPECT_LT(e.file, 500);
  }
}

TEST(Trace, SaveLoadRoundTrip) {
  HotColdSampler pop(100, 10, 0.9);
  Trace t = Trace::synthesize(pop, sim::Rng(3), 50.0, 10 * sim::kSecond);
  const std::string path = "/tmp/availsim_trace_test.txt";
  ASSERT_TRUE(t.save(path));
  auto loaded = Trace::load(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Saved at microsecond resolution.
    EXPECT_NEAR(static_cast<double>(loaded->entries()[i].at),
                static_cast<double>(t.entries()[i].at), sim::kMicrosecond);
    EXPECT_EQ(loaded->entries()[i].file, t.entries()[i].file);
  }
}

TEST(Trace, SaveCreatesMissingParentDirectories) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "availsim_trace_nested_test";
  std::filesystem::remove_all(root);
  const std::string path = (root / "a" / "b" / "sample.trace").string();
  // Whole microseconds, so the reload is exact.
  Trace t({{sim::kMicrosecond, 3}, {2500 * sim::kMicrosecond, 8},
           {sim::kSecond, 3}});
  ASSERT_TRUE(t.save(path));
  auto loaded = Trace::load(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(loaded->entries()[i].at, t.entries()[i].at);
    EXPECT_EQ(loaded->entries()[i].file, t.entries()[i].file);
  }
  std::filesystem::remove_all(root);
}

TEST(Trace, LoadRejectsCorruptFiles) {
  const std::string path = "/tmp/availsim_trace_corrupt.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("100 5\n50 7\n", f);  // out of order
  std::fclose(f);
  EXPECT_FALSE(Trace::load(path).has_value());
  EXPECT_FALSE(Trace::load("/nonexistent/trace").has_value());
}

class TraceClientFixture : public ::testing::Test {
 protected:
  TraceClientFixture() : net_(sim_, sim::Rng(1), params()) {
    server_ = std::make_unique<net::Host>(sim_, 0, "server");
    client_host_ = std::make_unique<net::Host>(sim_, 1, "client");
    net_.attach(*server_);
    net_.attach(*client_host_);
    recorder_ = std::make_unique<Recorder>(sim_);
    server_->bind(net::ports::kPressHttp, [this](const net::Packet& p) {
      const auto& req = net::body_as<HttpRequest>(p);
      files_seen_.push_back(req.file);
      net_.send(0, req.client, req.reply_port, 1024,
                net::make_body<HttpReply>(HttpReply{req.request_id}));
    });
  }

  static net::NetworkParams params() {
    net::NetworkParams p;
    p.max_jitter = 0;
    return p;
  }

  sim::Simulator sim_;
  net::Network net_;
  std::unique_ptr<net::Host> server_;
  std::unique_ptr<net::Host> client_host_;
  std::unique_ptr<Recorder> recorder_;
  std::vector<FileId> files_seen_;
};

TEST_F(TraceClientFixture, ReplaysEntriesInOrderAtRecordedTimes) {
  Trace t({{sim::kSecond, 5}, {2 * sim::kSecond, 7}, {3 * sim::kSecond, 9}});
  Client client(sim_, net_, *client_host_, t, Client::Replay{}, *recorder_);
  client.set_destinations({0}, net::ports::kPressHttp);
  client.start();
  sim_.run_until(3500 * sim::kMillisecond);
  EXPECT_EQ(files_seen_, (std::vector<FileId>{5, 7, 9}));
  EXPECT_EQ(recorder_->total_success(), 3u);
}

TEST_F(TraceClientFixture, LoopsWhenConfigured) {
  Trace t({{sim::kSecond, 1}, {2 * sim::kSecond, 2}});
  Client::Replay p;
  p.loop = true;
  Client client(sim_, net_, *client_host_, t, p, *recorder_);
  client.set_destinations({0}, net::ports::kPressHttp);
  client.start();
  sim_.run_until(7 * sim::kSecond);
  EXPECT_GE(files_seen_.size(), 5u);  // at least 2.5 loops
}

TEST_F(TraceClientFixture, StopsAtEndWithoutLoop) {
  Trace t({{sim::kSecond, 1}, {2 * sim::kSecond, 2}});
  Client::Replay p;
  p.loop = false;
  Client client(sim_, net_, *client_host_, t, p, *recorder_);
  client.set_destinations({0}, net::ports::kPressHttp);
  client.start();
  sim_.run_until(10 * sim::kSecond);
  EXPECT_EQ(files_seen_.size(), 2u);
}

TEST_F(TraceClientFixture, SpeedupCompressesReplay) {
  Trace t({{2 * sim::kSecond, 1}, {4 * sim::kSecond, 2}});
  Client::Replay p;
  p.speedup = 2.0;
  p.loop = false;
  Client client(sim_, net_, *client_host_, t, p, *recorder_);
  client.set_destinations({0}, net::ports::kPressHttp);
  client.start();
  sim_.run_until(2100 * sim::kMillisecond);
  EXPECT_EQ(files_seen_.size(), 2u);  // replayed in half the time
}

TEST_F(TraceClientFixture, FailuresRecordedOnDeadServer) {
  server_->crash();
  Trace t({{sim::kSecond, 1}});
  Client::Replay p;
  p.loop = false;
  Client client(sim_, net_, *client_host_, t, p, *recorder_);
  client.set_destinations({0}, net::ports::kPressHttp);
  client.start();
  sim_.run_until(10 * sim::kSecond);
  EXPECT_EQ(recorder_->total_failed(), 1u);
  EXPECT_EQ(client.outstanding(), 0u);
}

}  // namespace
}  // namespace availsim::workload
