// Degenerate and adversarial inputs: graphs with no edges, self-loops,
// duplicate edges, stars, chains, unreachable regions, zero supersteps —
// every engine mode must handle them gracefully and identically.
#include <gtest/gtest.h>

#include "algos/lpa.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "core/engine.h"
#include "graph/generator.h"
#include "tests/core/reference_impls.h"

namespace hybridgraph {
namespace {

const EngineMode kEngineModes[] = {EngineMode::kPush, EngineMode::kPushM,
                                   EngineMode::kBPull, EngineMode::kHybrid};

JobConfig Base(EngineMode mode) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 3;
  cfg.msg_buffer_per_node = 50;
  cfg.max_supersteps = 20;
  return cfg;
}

template <typename P>
std::vector<typename P::Value> RunFor(const EdgeListGraph& g, P program,
                                   EngineMode mode, int max_supersteps = 20) {
  JobConfig cfg = Base(mode);
  cfg.max_supersteps = max_supersteps;
  Engine<P> engine(cfg, program);
  EXPECT_TRUE(engine.Load(g).ok());
  EXPECT_TRUE(engine.Run().ok());
  return engine.GatherValues().ValueOrDie();
}

TEST(EdgeCases, GraphWithNoEdges) {
  EdgeListGraph g;
  g.num_vertices = 30;
  for (EngineMode mode : kEngineModes) {
    const auto ranks = RunFor(g, PageRankProgram{}, mode, 3);
    for (double r : ranks) {
      // No messages ever arrive: ranks settle at the teleport term.
      EXPECT_NEAR(r, 0.15 / 30.0, 1e-12) << EngineModeName(mode);
    }
  }
}

TEST(EdgeCases, SelfLoopsAreDelivered) {
  EdgeListGraph g;
  g.num_vertices = 6;
  g.edges = {{0, 0, 1.0f}, {0, 1, 1.0f}, {1, 2, 1.0f}, {2, 0, 1.0f}};
  const auto expected = ReferencePageRank(g, 4);
  for (EngineMode mode : kEngineModes) {
    const auto got = RunFor(g, PageRankProgram{}, mode, 4);
    for (size_t v = 0; v < got.size(); ++v) {
      ASSERT_NEAR(got[v], expected[v], 1e-12) << EngineModeName(mode) << v;
    }
  }
}

TEST(EdgeCases, DuplicateEdgesCountTwice) {
  EdgeListGraph g;
  g.num_vertices = 6;
  g.edges = {{0, 1, 1.0f}, {0, 1, 1.0f}, {1, 2, 1.0f}};
  const auto expected = ReferencePageRank(g, 4);
  for (EngineMode mode : kEngineModes) {
    const auto got = RunFor(g, PageRankProgram{}, mode, 4);
    for (size_t v = 0; v < got.size(); ++v) {
      ASSERT_NEAR(got[v], expected[v], 1e-12) << EngineModeName(mode) << v;
    }
  }
}

TEST(EdgeCases, StarGraphHubFragmentation) {
  // One hub pointing at everyone: a single source vertex owning fragments in
  // every Eblock — the worst case of Theorem 1.
  EdgeListGraph g;
  g.num_vertices = 90;
  for (VertexId v = 1; v < 90; ++v) g.edges.push_back({0, v, 1.0f});
  SsspProgram program;
  program.source = 0;
  const auto expected = ReferenceSssp(g, 0);
  for (EngineMode mode : kEngineModes) {
    const auto got = RunFor(g, program, mode);
    for (size_t v = 0; v < got.size(); ++v) {
      ASSERT_FLOAT_EQ(got[v], expected[v]) << EngineModeName(mode) << v;
    }
  }
}

TEST(EdgeCases, ChainNeedsManySupersteps) {
  EdgeListGraph g;
  g.num_vertices = 40;
  for (VertexId v = 0; v + 1 < 40; ++v) g.edges.push_back({v, v + 1, 1.0f});
  SsspProgram program;
  program.source = 0;
  for (EngineMode mode : kEngineModes) {
    JobConfig cfg = Base(mode);
    cfg.max_supersteps = 100;
    Engine<SsspProgram> engine(cfg, program);
    ASSERT_TRUE(engine.Load(g).ok());
    ASSERT_TRUE(engine.Run().ok());
    EXPECT_TRUE(engine.converged()) << EngineModeName(mode);
    // 39 hops plus the start/terminate supersteps.
    EXPECT_GE(engine.stats().supersteps_run, 40) << EngineModeName(mode);
    const auto got = engine.GatherValues().ValueOrDie();
    EXPECT_LT(got[39], SsspProgram::kInf);
  }
}

TEST(EdgeCases, UnreachableRegionStaysAtInfinity) {
  EdgeListGraph g;
  g.num_vertices = 20;
  g.edges = {{0, 1, 1.0f}, {1, 2, 1.0f}, {10, 11, 1.0f}};
  SsspProgram program;
  program.source = 0;
  for (EngineMode mode : kEngineModes) {
    const auto got = RunFor(g, program, mode);
    EXPECT_EQ(got[0], 0.0f);
    EXPECT_LT(got[2], SsspProgram::kInf);
    EXPECT_EQ(got[10], SsspProgram::kInf) << EngineModeName(mode);
    EXPECT_EQ(got[11], SsspProgram::kInf) << EngineModeName(mode);
  }
}

TEST(EdgeCases, ZeroSuperstepsRunsNothing) {
  const auto g = GeneratePowerLaw(100, 5.0, 0.7, 1);
  JobConfig cfg = Base(EngineMode::kHybrid);
  cfg.max_supersteps = 0;
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  ASSERT_TRUE(engine.Load(g).ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.stats().supersteps_run, 0);
  // Values keep their initial state.
  const auto got = engine.GatherValues().ValueOrDie();
  for (double v : got) EXPECT_DOUBLE_EQ(v, 1.0 / 100.0);
}

TEST(EdgeCases, PushMRejectsNonCombinable) {
  const auto g = GeneratePowerLaw(100, 5.0, 0.7, 1);
  Engine<WccProgram> combinable_ok(Base(EngineMode::kPushM), WccProgram{});
  EXPECT_TRUE(combinable_ok.Load(g).ok());  // WCC is combinable

  // LPA is concatenate-only: online computing cannot apply.
  Engine<LpaProgram> engine(Base(EngineMode::kPushM), LpaProgram{});
  EXPECT_EQ(engine.Load(g).code(), StatusCode::kInvalidArgument);
}

TEST(EdgeCases, VPullOnDegenerateGraphs) {
  EdgeListGraph g;
  g.num_vertices = 12;
  g.edges = {{0, 0, 1.0f}, {0, 1, 1.0f}, {0, 1, 1.0f}};
  const auto expected = ReferencePageRank(g, 4);
  JobConfig cfg = Base(EngineMode::kVPull);
  cfg.max_supersteps = 4;
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  ASSERT_TRUE(engine.Load(g).ok());
  ASSERT_TRUE(engine.Run().ok());
  const auto got = engine.GatherValues().ValueOrDie();
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-12) << v;
  }
}

TEST(EdgeCases, ManyMoreVblocksThanVertices) {
  const auto g = GeneratePowerLaw(60, 4.0, 0.7, 2);
  JobConfig cfg = Base(EngineMode::kBPull);
  cfg.vblocks_per_node = 50;  // requested 150 blocks for 60 vertices
  cfg.max_supersteps = 4;
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  ASSERT_TRUE(engine.Load(g).ok());
  ASSERT_TRUE(engine.Run().ok());
  const auto expected = ReferencePageRank(g, 4);
  const auto got = engine.GatherValues().ValueOrDie();
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-12) << v;
  }
}

}  // namespace
}  // namespace hybridgraph
