// Thread-count invariance: running the simulated nodes on a pool of worker
// threads must leave results AND every modeled per-superstep metric
// bit-identical to the fully sequential run, for every engine mode —
// including when a checkpoint written by a parallel run is restored into a
// sequential engine mid-job (and vice versa).
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "core/engine.h"
#include "graph/generator.h"
#include "hybridgraph/any_engine.h"

namespace hybridgraph {
namespace {

EdgeListGraph TestGraph() { return GeneratePowerLaw(800, 8.0, 0.75, 321); }

void ExpectSameMetrics(const SuperstepMetrics& a, const SuperstepMetrics& b,
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
  // Modeled times are sums of config constants in a deterministic order, so
  // they must be bit-identical, not merely close.
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
}

void ExpectSameRun(const JobStats& a, const JobStats& b,
                   const std::string& mode_name) {
  ASSERT_EQ(a.supersteps.size(), b.supersteps.size()) << mode_name;
  for (size_t t = 0; t < a.supersteps.size(); ++t) {
    ExpectSameMetrics(a.supersteps[t], b.supersteps[t],
                      mode_name + " superstep " + std::to_string(t));
  }
  EXPECT_EQ(a.converged, b.converged) << mode_name;
}

// gtest parameterized-test names must be [A-Za-z0-9_]; mode names like
// "b-pull" are not, so strip the punctuation.
std::string ParamName(EngineMode mode) {
  std::string name(EngineModeName(mode));
  std::erase_if(name, [](char c) { return !std::isalnum(uint8_t(c)); });
  return name;
}

JobConfig BaseConfig(EngineMode mode, uint32_t num_threads) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 6;
  cfg.num_threads = num_threads;
  cfg.msg_buffer_per_node = 500;  // limited memory: push spills, pull doesn't
  cfg.vpull_vertex_cache = 120;   // bounded LRU: eviction order matters
  cfg.max_supersteps = 5;
  return cfg;
}

class ParallelEngineTest : public ::testing::TestWithParam<EngineMode> {};

TEST_P(ParallelEngineTest, EightThreadsMatchSequentialBitForBit) {
  const EdgeListGraph graph = TestGraph();
  auto run = [&](uint32_t threads)
      -> std::pair<std::vector<uint8_t>, JobStats> {
    auto engine =
        MakeEngine(BaseConfig(GetParam(), threads), AlgoKind::kPageRank)
            .ValueOrDie();
    EXPECT_TRUE(engine->Load(graph).ok());
    EXPECT_TRUE(engine->Run().ok());
    return {engine->GatherValuesRaw().ValueOrDie(), engine->stats()};
  };
  const auto [seq_values, seq_stats] = run(1);
  const auto [par_values, par_stats] = run(8);
  EXPECT_EQ(seq_values, par_values);  // byte-identical vertex values
  ExpectSameRun(seq_stats, par_stats, EngineModeName(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllModes, ParallelEngineTest,
                         ::testing::Values(EngineMode::kPush,
                                           EngineMode::kPushM,
                                           EngineMode::kBPull,
                                           EngineMode::kHybrid,
                                           EngineMode::kVPull),
                         [](const auto& info) { return ParamName(info.param); });

// Plain TEST: must not share the ParallelEngineTest suite name with the
// TEST_P fixture above, or gtest aborts on the fixture-type mismatch.
TEST(ParallelEngineSwitchTest, TraversalWithModeSwitchIsThreadCountInvariant) {
  // SSSP under hybrid exercises the push<->b-pull switch path: the q_t
  // predictor inputs are themselves modeled metrics, so a single divergent
  // counter would flip the switching trace.
  const EdgeListGraph graph = TestGraph();
  auto run = [&](uint32_t threads)
      -> std::pair<std::vector<uint8_t>, JobStats> {
    JobConfig cfg = BaseConfig(EngineMode::kHybrid, threads);
    cfg.max_supersteps = 60;
    auto engine = MakeEngine(cfg, AlgoKind::kSssp).ValueOrDie();
    EXPECT_TRUE(engine->Load(graph).ok());
    EXPECT_TRUE(engine->Run().ok());
    return {engine->GatherValuesRaw().ValueOrDie(), engine->stats()};
  };
  const auto [seq_values, seq_stats] = run(1);
  const auto [par_values, par_stats] = run(8);
  EXPECT_EQ(seq_values, par_values);
  ExpectSameRun(seq_stats, par_stats, "hybrid-sssp");
}

TEST(ParallelSpillMergeTest, NonCombinableSpillOrderIsThreadCountInvariant) {
  // LPA is NOT combinable, so a vertex sees every spilled message
  // individually and its label histogram depends on message multiset — and
  // the streaming merge's (dst, run index) tie-break is what pins the order
  // messages come back from disk. A tiny B_i forces many runs per superstep;
  // 1-thread and 8-thread runs must still gather bit-identical values and
  // identical spill metrics.
  const EdgeListGraph graph = TestGraph();
  auto run = [&](uint32_t threads)
      -> std::pair<std::vector<uint8_t>, JobStats> {
    JobConfig cfg = BaseConfig(EngineMode::kPush, threads);
    cfg.msg_buffer_per_node = 40;       // almost everything spills
    cfg.io.spill_merge_buffer_bytes = 64;  // several refills per run
    auto engine = MakeEngine(cfg, AlgoKind::kLpa).ValueOrDie();
    EXPECT_TRUE(engine->Load(graph).ok());
    EXPECT_TRUE(engine->Run().ok());
    return {engine->GatherValuesRaw().ValueOrDie(), engine->stats()};
  };
  const auto [seq_values, seq_stats] = run(1);
  const auto [par_values, par_stats] = run(8);
  EXPECT_EQ(seq_values, par_values);  // byte-identical labels
  ExpectSameRun(seq_stats, par_stats, "push-lpa-spill");
  // The scenario actually exercised the merge path.
  uint64_t spilled = 0, peak = 0;
  for (const auto& s : seq_stats.supersteps) {
    spilled += s.messages_spilled;
    peak = std::max(peak, s.spill_peak_resident);
  }
  EXPECT_GT(spilled, 0u);
  EXPECT_GT(peak, 0u);
  // Bounded memory: resident entries never exceed what the configured
  // per-run buffers can hold (+1 exposed entry); with 64-byte buffers and
  // far more than 64 bytes spilled per node this is a real constraint.
  const uint64_t record = 4 + 4;  // dst + LPA label payload
  const uint64_t per_run_entries = 64 / record;
  for (const auto& s : seq_stats.supersteps) {
    if (s.spill_peak_resident == 0) continue;
    const uint64_t max_runs = s.messages_spilled;  // runs ≤ spilled msgs
    EXPECT_LE(s.spill_peak_resident, max_runs * per_run_entries + 1);
    EXPECT_LT(s.spill_peak_resident, s.messages_spilled + 1)
        << "merge materialized the whole spill";
  }
}

class ParallelCheckpointTest : public ::testing::TestWithParam<EngineMode> {};

TEST_P(ParallelCheckpointTest, RestoreCrossesThreadCounts) {
  // A checkpoint written mid-run by an 8-thread engine must resume in a
  // 1-thread engine (and the reverse) with identical values and identical
  // post-restore superstep metrics.
  const EdgeListGraph graph = TestGraph();
  constexpr int kCheckpointAt = 2;

  auto run_with_crossover = [&](uint32_t threads_before,
                                uint32_t threads_after)
      -> std::pair<std::vector<double>, JobStats> {
    Engine<PageRankProgram> first(BaseConfig(GetParam(), threads_before),
                                  PageRankProgram{});
    EXPECT_TRUE(first.Load(graph).ok());
    for (int t = 0; t < kCheckpointAt; ++t) {
      EXPECT_TRUE(first.RunSuperstep().ok());
    }
    Buffer image;
    EXPECT_TRUE(first.WriteCheckpoint(&image).ok());

    Engine<PageRankProgram> second(BaseConfig(GetParam(), threads_after),
                                   PageRankProgram{});
    EXPECT_TRUE(second.Load(graph).ok());
    EXPECT_TRUE(second.RestoreCheckpoint(image.AsSlice()).ok());
    while (second.superstep() < 5 && !second.converged()) {
      EXPECT_TRUE(second.RunSuperstep().ok());
    }
    return {second.GatherValues().ValueOrDie(), second.stats()};
  };

  const auto [values_a, stats_a] = run_with_crossover(8, 1);
  const auto [values_b, stats_b] = run_with_crossover(1, 8);
  const auto [values_c, stats_c] = run_with_crossover(1, 1);
  EXPECT_EQ(values_a, values_b);
  EXPECT_EQ(values_a, values_c);
  ExpectSameRun(stats_a, stats_b, "crossover-8to1-vs-1to8");
  ExpectSameRun(stats_a, stats_c, "crossover-vs-sequential");
}

INSTANTIATE_TEST_SUITE_P(EngineModes, ParallelCheckpointTest,
                         ::testing::Values(EngineMode::kPush,
                                           EngineMode::kPushM,
                                           EngineMode::kBPull,
                                           EngineMode::kHybrid),
                         [](const auto& info) { return ParamName(info.param); });

}  // namespace
}  // namespace hybridgraph
