// Overlapped-I/O determinism: turning the prefetch pipeline on must leave
// every MODELED per-superstep metric — I/O bytes per class, page-cache
// evolution, message counts, modeled times, the hybrid switch trace — and the
// gathered vertex values bit-identical to the prefetch-off run, at any thread
// count, in every engine mode. Only the prefetch_* observability counters and
// wall clocks may differ.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "algos/pagerank.h"
#include "core/engine.h"
#include "graph/generator.h"
#include "hybridgraph/any_engine.h"

namespace hybridgraph {
namespace {

EdgeListGraph TestGraph() { return GeneratePowerLaw(800, 8.0, 0.75, 321); }

// Every modeled field of SuperstepMetrics; deliberately EXCLUDES the
// prefetch_* counters and wall clocks, which are measured, not modeled.
void ExpectSameModeledMetrics(const SuperstepMetrics& a,
                              const SuperstepMetrics& b,
                              const std::string& where) {
  EXPECT_EQ(a.superstep, b.superstep) << where;
  EXPECT_EQ(a.mode, b.mode) << where;
  EXPECT_EQ(a.switched, b.switched) << where;
  EXPECT_EQ(a.active_vertices, b.active_vertices) << where;
  EXPECT_EQ(a.responding_vertices, b.responding_vertices) << where;
  EXPECT_EQ(a.messages_produced, b.messages_produced) << where;
  EXPECT_EQ(a.messages_on_wire, b.messages_on_wire) << where;
  EXPECT_EQ(a.messages_combined, b.messages_combined) << where;
  EXPECT_EQ(a.messages_spilled, b.messages_spilled) << where;
  EXPECT_EQ(a.io.vt_bytes, b.io.vt_bytes) << where;
  EXPECT_EQ(a.io.adj_edge_bytes, b.io.adj_edge_bytes) << where;
  EXPECT_EQ(a.io.msg_spill_write, b.io.msg_spill_write) << where;
  EXPECT_EQ(a.io.msg_spill_read, b.io.msg_spill_read) << where;
  EXPECT_EQ(a.io.eblock_edge_bytes, b.io.eblock_edge_bytes) << where;
  EXPECT_EQ(a.io.fragment_aux_bytes, b.io.fragment_aux_bytes) << where;
  EXPECT_EQ(a.io.vrr_bytes, b.io.vrr_bytes) << where;
  EXPECT_EQ(a.io.other_bytes, b.io.other_bytes) << where;
  EXPECT_EQ(a.net_bytes, b.net_bytes) << where;
  EXPECT_EQ(a.net_frames, b.net_frames) << where;
  EXPECT_EQ(a.cpu_seconds, b.cpu_seconds) << where;
  EXPECT_EQ(a.io_seconds, b.io_seconds) << where;
  EXPECT_EQ(a.net_seconds, b.net_seconds) << where;
  EXPECT_EQ(a.blocking_seconds, b.blocking_seconds) << where;
  EXPECT_EQ(a.superstep_seconds, b.superstep_seconds) << where;
  EXPECT_EQ(a.memory_highwater_bytes, b.memory_highwater_bytes) << where;
  EXPECT_EQ(a.spill_merge_buffer_bytes, b.spill_merge_buffer_bytes) << where;
  EXPECT_EQ(a.spill_peak_resident, b.spill_peak_resident) << where;
  EXPECT_EQ(a.aggregate, b.aggregate) << where;
  EXPECT_EQ(a.q_t, b.q_t) << where;
  EXPECT_EQ(a.predicted_mco, b.predicted_mco) << where;
  EXPECT_EQ(a.predicted_cio_push, b.predicted_cio_push) << where;
  EXPECT_EQ(a.predicted_cio_bpull, b.predicted_cio_bpull) << where;
  EXPECT_EQ(a.actual_mco, b.actual_mco) << where;
  EXPECT_EQ(a.actual_cio_push, b.actual_cio_push) << where;
  EXPECT_EQ(a.actual_cio_bpull, b.actual_cio_bpull) << where;
  EXPECT_EQ(a.local_iters, b.local_iters) << where;
  EXPECT_EQ(a.barriers_saved, b.barriers_saved) << where;
  EXPECT_EQ(a.local_msg_bytes, b.local_msg_bytes) << where;
}

void ExpectSameModeledRun(const JobStats& a, const JobStats& b,
                          const std::string& tag) {
  ASSERT_EQ(a.supersteps.size(), b.supersteps.size()) << tag;
  for (size_t t = 0; t < a.supersteps.size(); ++t) {
    ExpectSameModeledMetrics(a.supersteps[t], b.supersteps[t],
                             tag + " superstep " + std::to_string(t));
  }
  EXPECT_EQ(a.converged, b.converged) << tag;
}

std::string ParamName(EngineMode mode) {
  std::string name(EngineModeName(mode));
  std::erase_if(name, [](char c) { return !std::isalnum(uint8_t(c)); });
  return name;
}

JobConfig BaseConfig(EngineMode mode, uint32_t num_threads, bool prefetch) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 6;
  cfg.num_threads = num_threads;
  cfg.msg_buffer_per_node = 500;  // push spills: merge warmup has work to do
  cfg.vpull_vertex_cache = 120;   // bounded LRU: eviction order matters
  cfg.max_supersteps = 5;
  cfg.io.prefetch_depth = prefetch ? 4 : 0;
  return cfg;
}

uint64_t TotalScheduled(const JobStats& stats) {
  uint64_t n = 0;
  for (const auto& s : stats.supersteps) n += s.prefetch_scheduled;
  return n;
}

uint64_t TotalHits(const JobStats& stats) {
  uint64_t n = 0;
  for (const auto& s : stats.supersteps) n += s.prefetch_hits;
  return n;
}

class PipelineDeterminismTest : public ::testing::TestWithParam<EngineMode> {};

TEST_P(PipelineDeterminismTest, PrefetchOnOffBitIdenticalAcrossThreadCounts) {
  const EdgeListGraph graph = TestGraph();
  auto run = [&](uint32_t threads, bool prefetch)
      -> std::pair<std::vector<uint8_t>, JobStats> {
    auto engine =
        MakeEngine(BaseConfig(GetParam(), threads, prefetch), AlgoKind::kPageRank)
            .ValueOrDie();
    EXPECT_TRUE(engine->Load(graph).ok());
    EXPECT_TRUE(engine->Run().ok());
    return {engine->GatherValuesRaw().ValueOrDie(), engine->stats()};
  };
  const auto [base_values, base_stats] = run(1, false);
  const auto [on1_values, on1_stats] = run(1, true);
  const auto [on8_values, on8_stats] = run(8, true);
  EXPECT_EQ(base_values, on1_values);
  EXPECT_EQ(base_values, on8_values);
  const std::string mode(EngineModeName(GetParam()));
  ExpectSameModeledRun(base_stats, on1_stats, mode + " off-vs-on(t1)");
  ExpectSameModeledRun(base_stats, on8_stats, mode + " off-vs-on(t8)");
  // The pipeline actually engaged (scheduled + served staged reads), and the
  // prefetch-off run reported no pipeline activity at all.
  EXPECT_GT(TotalScheduled(on1_stats), 0u) << mode;
  EXPECT_GT(TotalHits(on1_stats), 0u) << mode;
  EXPECT_EQ(TotalScheduled(base_stats), 0u) << mode;
}

INSTANTIATE_TEST_SUITE_P(AllModes, PipelineDeterminismTest,
                         ::testing::Values(EngineMode::kPush,
                                           EngineMode::kPushM,
                                           EngineMode::kBPull,
                                           EngineMode::kHybrid,
                                           EngineMode::kVPull,
                                           EngineMode::kGraphHp),
                         [](const auto& info) { return ParamName(info.param); });

TEST(PipelineSwitchTest, HybridSwitchSequenceUnchangedByPrefetch) {
  // SSSP under hybrid is the sharpest determinism probe: the q_t predictor
  // inputs are themselves modeled metrics, so a single byte of divergent
  // modeled I/O would flip the golden switch trace.
  const EdgeListGraph graph = TestGraph();
  auto run = [&](bool prefetch) {
    JobConfig cfg = BaseConfig(EngineMode::kHybrid, 8, prefetch);
    cfg.max_supersteps = 60;
    auto engine = MakeEngine(cfg, AlgoKind::kSssp).ValueOrDie();
    EXPECT_TRUE(engine->Load(graph).ok());
    EXPECT_TRUE(engine->Run().ok());
    return engine->stats();
  };
  const JobStats off = run(false);
  const JobStats on = run(true);
  ASSERT_EQ(off.supersteps.size(), on.supersteps.size());
  for (size_t t = 0; t < off.supersteps.size(); ++t) {
    EXPECT_EQ(off.supersteps[t].mode, on.supersteps[t].mode) << t;
    EXPECT_EQ(off.supersteps[t].switched, on.supersteps[t].switched) << t;
  }
  ExpectSameModeledRun(off, on, "hybrid-sssp-switch");
}

TEST(PipelineCheckpointTest, RestoreCancelsStagedReadsAndStaysDeterministic) {
  // A checkpoint restore throws away all engine state; staged readahead from
  // the pre-restore world must be cancelled, not consumed. The restored run
  // (prefetch on, 8 threads) must match a prefetch-off sequential restore.
  const EdgeListGraph graph = TestGraph();
  constexpr int kCheckpointAt = 2;
  auto run = [&](uint32_t threads, bool prefetch)
      -> std::pair<std::vector<double>, JobStats> {
    Engine<PageRankProgram> first(
        BaseConfig(EngineMode::kPush, threads, prefetch), PageRankProgram{});
    EXPECT_TRUE(first.Load(graph).ok());
    for (int t = 0; t < kCheckpointAt; ++t) {
      EXPECT_TRUE(first.RunSuperstep().ok());
    }
    Buffer image;
    EXPECT_TRUE(first.WriteCheckpoint(&image).ok());

    Engine<PageRankProgram> second(
        BaseConfig(EngineMode::kPush, threads, prefetch), PageRankProgram{});
    EXPECT_TRUE(second.Load(graph).ok());
    // Run a superstep BEFORE restoring so warmed-up readahead for superstep 1
    // is in flight when the restore rewinds the engine to superstep 2.
    EXPECT_TRUE(second.RunSuperstep().ok());
    EXPECT_TRUE(second.RestoreCheckpoint(image.AsSlice()).ok());
    while (second.superstep() < 5 && !second.converged()) {
      EXPECT_TRUE(second.RunSuperstep().ok());
    }
    return {second.GatherValues().ValueOrDie(), second.stats()};
  };
  const auto [off_values, off_stats] = run(1, false);
  const auto [on_values, on_stats] = run(8, true);
  EXPECT_EQ(off_values, on_values);
  ExpectSameModeledRun(off_stats, on_stats, "restore-prefetch");
}

}  // namespace
}  // namespace hybridgraph
