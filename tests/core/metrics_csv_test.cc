#include "core/metrics_csv.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "algos/pagerank.h"
#include "core/engine.h"
#include "graph/generator.h"
#include "util/string_util.h"

namespace hybridgraph {
namespace {

JobStats RunSmallJob() {
  const auto g = GeneratePowerLaw(300, 6.0, 0.8, 8);
  JobConfig cfg;
  cfg.mode = EngineMode::kHybrid;
  cfg.num_nodes = 3;
  cfg.msg_buffer_per_node = 100;
  cfg.max_supersteps = 4;
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  EXPECT_TRUE(engine.Load(g).ok());
  EXPECT_TRUE(engine.Run().ok());
  return engine.stats();
}

TEST(MetricsCsv, HeaderAndRowShape) {
  const JobStats stats = RunSmallJob();
  const std::string csv = SuperstepMetricsCsv(stats);
  const auto lines = SplitString(TrimString(csv), '\n');
  ASSERT_EQ(lines.size(), stats.supersteps.size() + 1);

  const auto header = SplitString(lines[0], ',');
  for (size_t i = 1; i < lines.size(); ++i) {
    const auto row = SplitString(lines[i], ',');
    ASSERT_EQ(row.size(), header.size()) << "row " << i;
  }
  // Spot fields.
  EXPECT_EQ(header[0], "superstep");
  EXPECT_EQ(header[1], "mode");
  // Skew-armor columns, then the GraphHP sub-iteration columns, ride at the
  // end of every row.
  EXPECT_EQ(header[header.size() - 7], "pull_requests");
  EXPECT_EQ(header[header.size() - 6], "edges_scanned");
  EXPECT_EQ(header[header.size() - 5], "msg_imbalance");
  EXPECT_EQ(header[header.size() - 4], "edge_imbalance");
  EXPECT_EQ(header[header.size() - 3], "local_iters");
  EXPECT_EQ(header[header.size() - 2], "barriers_saved");
  EXPECT_EQ(header[header.size() - 1], "local_msg_bytes");
  const auto row1 = SplitString(lines[1], ',');
  EXPECT_EQ(row1[0], "0");
  EXPECT_TRUE(row1[1] == "push" || row1[1] == "b-pull");
}

TEST(MetricsCsv, ValuesMatchStats) {
  const JobStats stats = RunSmallJob();
  const std::string csv = SuperstepMetricsCsv(stats);
  const auto lines = SplitString(TrimString(csv), '\n');
  const auto header = SplitString(lines[0], ',');
  size_t msgs_col = 0, io_col = 0, buf_col = 0, res_col = 0;
  size_t psch_col = 0, phit_col = 0, pmiss_col = 0, pbytes_col = 0;
  for (size_t c = 0; c < header.size(); ++c) {
    if (header[c] == "messages") msgs_col = c;
    if (header[c] == "io_total") io_col = c;
    if (header[c] == "spill_buffer_bytes") buf_col = c;
    if (header[c] == "spill_resident_peak") res_col = c;
    if (header[c] == "prefetch_scheduled") psch_col = c;
    if (header[c] == "prefetch_hits") phit_col = c;
    if (header[c] == "prefetch_misses") pmiss_col = c;
    if (header[c] == "prefetch_hit_bytes") pbytes_col = c;
  }
  ASSERT_GT(msgs_col, 0u);
  ASSERT_GT(io_col, 0u);
  ASSERT_GT(buf_col, 0u);
  ASSERT_GT(res_col, 0u);
  ASSERT_GT(psch_col, 0u);
  ASSERT_GT(phit_col, 0u);
  ASSERT_GT(pmiss_col, 0u);
  ASSERT_GT(pbytes_col, 0u);
  for (size_t i = 0; i < stats.supersteps.size(); ++i) {
    const auto row = SplitString(lines[i + 1], ',');
    EXPECT_EQ(std::stoull(row[msgs_col]),
              stats.supersteps[i].messages_produced);
    EXPECT_EQ(std::stoull(row[io_col]), stats.supersteps[i].io.Total());
    EXPECT_EQ(std::stoull(row[buf_col]),
              stats.supersteps[i].spill_merge_buffer_bytes);
    EXPECT_EQ(std::stoull(row[res_col]),
              stats.supersteps[i].spill_peak_resident);
    EXPECT_EQ(std::stoull(row[psch_col]),
              stats.supersteps[i].prefetch_scheduled);
    EXPECT_EQ(std::stoull(row[phit_col]), stats.supersteps[i].prefetch_hits);
    EXPECT_EQ(std::stoull(row[pmiss_col]),
              stats.supersteps[i].prefetch_misses);
    EXPECT_EQ(std::stoull(row[pbytes_col]),
              stats.supersteps[i].prefetch_hit_bytes);
  }
}

TEST(MetricsCsv, PhaseWallColumnsPresentAndMatchStats) {
  const JobStats stats = RunSmallJob();
  const std::string csv = SuperstepMetricsCsv(stats);
  const auto lines = SplitString(TrimString(csv), '\n');
  const auto header = SplitString(lines[0], ',');
  size_t consume_col = 0, update_col = 0, drain_col = 0;
  for (size_t c = 0; c < header.size(); ++c) {
    if (header[c] == "phase_consume_s") consume_col = c;
    if (header[c] == "phase_update_s") update_col = c;
    if (header[c] == "phase_drain_s") drain_col = c;
  }
  ASSERT_GT(consume_col, 0u);
  ASSERT_GT(update_col, 0u);
  ASSERT_GT(drain_col, 0u);
  for (size_t i = 0; i < stats.supersteps.size(); ++i) {
    const auto row = SplitString(lines[i + 1], ',');
    // %.9g keeps 9 significant digits, so compare with a relative tolerance.
    EXPECT_NEAR(std::stod(row[consume_col]),
                stats.supersteps[i].phase_consume_wall_s,
                stats.supersteps[i].phase_consume_wall_s * 1e-6 + 1e-12);
    EXPECT_NEAR(std::stod(row[update_col]),
                stats.supersteps[i].phase_update_wall_s,
                stats.supersteps[i].phase_update_wall_s * 1e-6 + 1e-12);
    EXPECT_NEAR(std::stod(row[drain_col]),
                stats.supersteps[i].phase_drain_wall_s,
                stats.supersteps[i].phase_drain_wall_s * 1e-6 + 1e-12);
    // Wall clocks are nonnegative; the update sweep always does real work.
    EXPECT_GE(stats.supersteps[i].phase_consume_wall_s, 0.0);
    EXPECT_GT(stats.supersteps[i].phase_update_wall_s, 0.0);
  }
}

TEST(MetricsCsv, WritesFile) {
  const JobStats stats = RunSmallJob();
  const std::string path = ::testing::TempDir() + "/hg_metrics_test.csv";
  ASSERT_TRUE(WriteSuperstepCsv(stats, path).ok());
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string first;
  std::getline(f, first);
  EXPECT_EQ(first.rfind("superstep,", 0), 0u);
  std::filesystem::remove(path);
  EXPECT_FALSE(WriteSuperstepCsv(stats, "/nonexistent-dir/x.csv").ok());
}

}  // namespace
}  // namespace hybridgraph
