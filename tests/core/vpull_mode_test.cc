// v-pull (PowerGraph GAS) mode of Engine<P>: correctness against references
// and the Table-5 scenario ordering (shrinking the vertex cache must hurt).
#include "core/engine.h"

#include <gtest/gtest.h>

#include "algos/lpa.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "graph/generator.h"
#include "tests/core/reference_impls.h"

namespace hybridgraph {
namespace {

EdgeListGraph TestGraph(uint64_t seed = 123) {
  return GeneratePowerLaw(600, 8.0, 0.75, seed);
}

TEST(VPullMode, PageRankMatchesReference) {
  const auto g = TestGraph();
  constexpr int kSteps = 5;
  const auto expected = ReferencePageRank(g, kSteps);
  JobConfig cfg;
  cfg.mode = EngineMode::kVPull;
  cfg.num_nodes = 4;
  cfg.vpull_vertex_cache = 50;  // heavy miss traffic, same results
  cfg.max_supersteps = kSteps;
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  ASSERT_TRUE(engine.Load(g).ok());
  ASSERT_TRUE(engine.Run().ok());
  const auto got = engine.GatherValues().ValueOrDie();
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-12) << v;
  }
}

TEST(VPullMode, SsspMatchesReferenceAndConverges) {
  const auto g = TestGraph(7);
  SsspProgram program;
  program.source = 2;
  const auto expected = ReferenceSssp(g, 2);
  JobConfig cfg;
  cfg.mode = EngineMode::kVPull;
  cfg.num_nodes = 4;
  cfg.max_supersteps = 200;
  Engine<SsspProgram> engine(cfg, program);
  ASSERT_TRUE(engine.Load(g).ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_TRUE(engine.converged());
  const auto got = engine.GatherValues().ValueOrDie();
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_FLOAT_EQ(got[v], expected[v]) << v;
  }
}

TEST(VPullMode, LpaRunsNonCombinable) {
  const auto g = TestGraph(9);
  JobConfig cfg;
  cfg.mode = EngineMode::kVPull;
  cfg.num_nodes = 3;
  cfg.max_supersteps = 5;
  Engine<LpaProgram> engine(cfg, LpaProgram{});
  ASSERT_TRUE(engine.Load(g).ok());
  ASSERT_TRUE(engine.Run().ok());
  const auto got = engine.GatherValues().ValueOrDie();
  uint64_t changed = 0;
  for (uint32_t v = 0; v < got.size(); ++v) changed += got[v] != v;
  EXPECT_GT(changed, got.size() / 4);
}

TEST(VPullMode, SmallerCacheMeansMoreTime) {
  // The Table 5 ordering: original >= ext-mem >= ext-edge >> tiny cache.
  const auto g = TestGraph(11);
  auto run = [&](bool memory_resident, uint64_t cache) {
    JobConfig cfg;
    cfg.mode = EngineMode::kVPull;
    cfg.num_nodes = 4;
    cfg.memory_resident = memory_resident;
    cfg.vpull_vertex_cache = cache;
    cfg.max_supersteps = 5;
    Engine<PageRankProgram> engine(cfg, PageRankProgram{});
    EXPECT_TRUE(engine.Load(g).ok());
    EXPECT_TRUE(engine.Run().ok());
    return engine.stats().modeled_seconds;
  };
  const double original = run(true, UINT64_MAX);
  const double ext_full_cache = run(false, UINT64_MAX);
  const double ext_small_cache = run(false, 30);
  EXPECT_LE(original, ext_full_cache * 1.2);
  EXPECT_GT(ext_small_cache, 3 * ext_full_cache);
}

TEST(VPullMode, NetworkTrafficScalesWithReplication) {
  // More nodes -> more mirrors per vertex -> more gather/apply traffic per
  // superstep (the vertex-cut communication cost of Sec 5.1).
  const auto g = TestGraph(13);
  auto traffic = [&](uint32_t nodes) {
    JobConfig cfg;
    cfg.mode = EngineMode::kVPull;
    cfg.num_nodes = nodes;
    cfg.max_supersteps = 3;
    Engine<PageRankProgram> engine(cfg, PageRankProgram{});
    EXPECT_TRUE(engine.Load(g).ok());
    EXPECT_TRUE(engine.Run().ok());
    return engine.stats().TotalNetBytes();
  };
  EXPECT_GT(traffic(8), traffic(2));
}

TEST(VPullMode, CheckpointsNeedTheBlockTopology) {
  // Checkpoint images hold block-store state only; the GAS path keeps its
  // own storage, so a v-pull job must refuse rather than write an image
  // that restores nothing.
  JobConfig cfg;
  cfg.mode = EngineMode::kVPull;
  cfg.num_nodes = 3;
  cfg.max_supersteps = 2;
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  ASSERT_TRUE(engine.Load(TestGraph(15)).ok());
  ASSERT_TRUE(engine.RunSuperstep().ok());
  Buffer image;
  EXPECT_EQ(engine.WriteCheckpoint(&image).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.RestoreCheckpoint(Slice()).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace hybridgraph
