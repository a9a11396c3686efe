#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "availsim/harness/export.hpp"
#include "availsim/harness/report.hpp"
#include "availsim/harness/stage_extractor.hpp"

namespace availsim::harness {
namespace {

// ---------------------------------------------------------------------------
// Stage extraction from synthetic runs
// ---------------------------------------------------------------------------

class ExtractorFixture : public ::testing::Test {
 protected:
  ExtractorFixture() : recorder_(sim_) {}

  /// Fills the recorder with `rps` successes per second over [from, to).
  void fill(sim::Time from, sim::Time to, int rps) {
    for (sim::Time t = from; t < to; t += sim::kSecond) {
      sim_.schedule_at(t + sim::kMillisecond, [this, rps] {
        for (int i = 0; i < rps; ++i) {
          recorder_.record_offered();
          recorder_.record_success();
        }
      });
    }
  }

  void event(sim::Time at, const char* what, int node = 0) {
    events_.push_back({at, what, node});
  }

  ExtractionInputs inputs() {
    ExtractionInputs in;
    in.recorder = &recorder_;
    in.events = &events_;
    in.t_inject = 100 * sim::kSecond;
    in.t_repair_sim = 250 * sim::kSecond;
    in.t_end = 800 * sim::kSecond;
    in.mttr_real_seconds = 3600;
    in.t0 = 100;
    in.stabilize_window = 30 * sim::kSecond;
    in.warm_window = 60 * sim::kSecond;
    return in;
  }

  sim::Simulator sim_;
  workload::Recorder recorder_;
  std::vector<Testbed::LogEvent> events_;
};

TEST_F(ExtractorFixture, FindDetectionPicksFirstMarkerAfterInjection) {
  event(50 * sim::kSecond, "detect_failure");  // before injection: ignored
  event(110 * sim::kSecond, "qmon_fail");
  event(120 * sim::kSecond, "detect_failure");
  EXPECT_EQ(find_detection(events_, 100 * sim::kSecond, 250 * sim::kSecond),
            110 * sim::kSecond);
}

TEST_F(ExtractorFixture, NoDetectionMeansStageASpansTheMttr) {
  fill(0, 800 * sim::kSecond, 100);
  auto in = inputs();
  sim_.run();
  auto st = extract_stages(in);
  // Nothing detected the fault: the whole fault-active period is stage A,
  // measured over the simulated window and extended to the real MTTR.
  EXPECT_DOUBLE_EQ(st.t(model::Stage::kA), 3600.0);
  EXPECT_DOUBLE_EQ(st.t(model::Stage::kB), 0.0);
  EXPECT_DOUBLE_EQ(st.t(model::Stage::kC), 0.0);
  EXPECT_NEAR(st.tput(model::Stage::kA), 100.0, 1.0);
}

TEST_F(ExtractorFixture, FullTimelineProducesAllStages) {
  // T0=100 before the fault; 0 during A; 75 during the degraded period;
  // 90 after repair; operator reset at 500 s; 95 during warm-up.
  fill(0, 100 * sim::kSecond, 100);
  fill(100 * sim::kSecond, 115 * sim::kSecond, 0);
  fill(115 * sim::kSecond, 250 * sim::kSecond, 75);
  fill(250 * sim::kSecond, 500 * sim::kSecond, 90);
  fill(500 * sim::kSecond, 510 * sim::kSecond, 10);
  fill(510 * sim::kSecond, 800 * sim::kSecond, 95);
  event(115 * sim::kSecond, "detect_failure");
  event(500 * sim::kSecond, "operator_reset");
  event(510 * sim::kSecond, "operator_done");
  sim_.run();
  auto st = extract_stages(inputs());

  EXPECT_DOUBLE_EQ(st.t(model::Stage::kA), 15.0);
  EXPECT_NEAR(st.tput(model::Stage::kA), 0.0, 1.0);
  EXPECT_DOUBLE_EQ(st.t(model::Stage::kB), 30.0);
  EXPECT_NEAR(st.tput(model::Stage::kB), 75.0, 1.0);
  EXPECT_DOUBLE_EQ(st.t(model::Stage::kC), 3600.0 - 45.0);
  EXPECT_NEAR(st.tput(model::Stage::kC), 75.0, 1.0);
  EXPECT_DOUBLE_EQ(st.t(model::Stage::kD), 30.0);
  EXPECT_NEAR(st.tput(model::Stage::kD), 90.0, 1.0);
  // E runs from the end of D to the operator reset.
  EXPECT_DOUBLE_EQ(st.t(model::Stage::kE), 220.0);
  EXPECT_NEAR(st.tput(model::Stage::kE), 90.0, 1.0);
  EXPECT_DOUBLE_EQ(st.t(model::Stage::kF), 10.0);
  EXPECT_DOUBLE_EQ(st.t(model::Stage::kG), 60.0);
  EXPECT_NEAR(st.tput(model::Stage::kG), 95.0, 2.0);
}

TEST_F(ExtractorFixture, NoOperatorMeansNoFGStages) {
  fill(0, 800 * sim::kSecond, 100);
  event(110 * sim::kSecond, "fe_mask");
  sim_.run();
  auto st = extract_stages(inputs());
  EXPECT_DOUBLE_EQ(st.t(model::Stage::kF), 0.0);
  EXPECT_DOUBLE_EQ(st.t(model::Stage::kG), 0.0);
  EXPECT_GT(st.t(model::Stage::kE), 0.0);  // observation tail
  EXPECT_NEAR(st.tput(model::Stage::kE), 100.0, 1.0);  // no loss
}

TEST_F(ExtractorFixture, ShortMttrClampsStages) {
  fill(0, 800 * sim::kSecond, 100);
  event(110 * sim::kSecond, "detect_failure");
  sim_.run();
  auto in = inputs();
  in.mttr_real_seconds = 20;  // shorter than A+B
  auto st = extract_stages(in);
  EXPECT_DOUBLE_EQ(st.t(model::Stage::kC), 0.0);
}

// ---------------------------------------------------------------------------
// Report helpers
// ---------------------------------------------------------------------------

TEST(Report, FormatsPercentages) {
  EXPECT_EQ(format_availability_percent(0.9951), "99.510%");
  EXPECT_EQ(format_unavailability(0.0049), "0.00490");
  EXPECT_EQ(format_unavailability(-0.001), "0.00000");  // clamped
}

TEST(Report, AsciiBarScales) {
  EXPECT_EQ(ascii_bar(1.0, 1.0, 10), "##########");
  EXPECT_EQ(ascii_bar(0.5, 1.0, 10), "#####     ");
  EXPECT_EQ(ascii_bar(0.0, 1.0, 4), "    ");
  EXPECT_EQ(ascii_bar(5.0, 1.0, 4), "####");  // clamped at width
}

TEST(Report, SeriesCsvDownsamples) {
  std::vector<double> series(1000, 50.0);
  std::ostringstream os;
  print_series_csv(os, series, 0, 1000, 100);
  std::string line;
  std::istringstream is(os.str());
  int rows = 0;
  while (std::getline(is, line)) ++rows;
  EXPECT_LE(rows, 102);
  EXPECT_NE(os.str().find("t_seconds"), std::string::npos);
  EXPECT_NE(os.str().find(",50.0"), std::string::npos);
}

TEST(Report, CountNcslSkipsBlanksAndComments) {
  const std::string path = "/tmp/availsim_ncsl_test.cpp";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("// comment only\n\nint x;\n  // indented comment\nint y;\n",
               f);
    std::fclose(f);
  }
  EXPECT_EQ(count_ncsl({path}), 2u);
  EXPECT_EQ(count_ncsl({"/nonexistent/file.cpp"}), 0u);
}

TEST(Report, SubsystemSourcesNonEmpty) {
  for (const char* sub : {"membership", "qmon", "fme", "press"}) {
    EXPECT_FALSE(subsystem_sources("src", sub).empty()) << sub;
  }
  EXPECT_TRUE(subsystem_sources("src", "unknown").empty());
}

TEST(Export, ResultsDirHonorsCacheDirVariableAndCreatesIt) {
  const std::string dir = "/tmp/availsim_results_dir_test/nested";
  std::filesystem::remove_all("/tmp/availsim_results_dir_test");
  ::setenv("AVAILSIM_CACHE_DIR", dir.c_str(), 1);
  EXPECT_EQ(results_dir(), dir);
  ::unsetenv("AVAILSIM_CACHE_DIR");
  EXPECT_TRUE(std::filesystem::is_directory(dir));
}

TEST(Export, ModelCsvHasHeaderAndRows) {
  model::FaultTemplate f;
  f.type = fault::FaultType::kNodeCrash;
  f.mttf_seconds = 1209600;
  f.mttr_seconds = 180;
  f.components = 4;
  f.stages.t(model::Stage::kA) = 16;
  f.stages.tput(model::Stage::kA) = 100;
  model::SystemModel m(2000, {f});
  const std::string path = "/tmp/availsim_export_model.csv";
  ASSERT_TRUE(export_model_csv(m, path));
  std::ifstream in(path);
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_NE(header.find("t_A"), std::string::npos);
  EXPECT_NE(header.find("unavailability"), std::string::npos);
  EXPECT_NE(row.find("node crash"), std::string::npos);
}

TEST(Export, BreakdownCsvOneRowPerConfig) {
  model::SystemModel a(100, {}), b(100, {});
  const std::string path = "/tmp/availsim_export_breakdown.csv";
  ASSERT_TRUE(export_breakdown_csv({{"X", a}, {"Y", b}}, path));
  std::ifstream in(path);
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 3);  // header + 2 configs
}

}  // namespace
}  // namespace availsim::harness
