// Differential tests for the skew defenses: vertex mirroring (per-node
// accumulators for mega-in-degree vertices), request–respond pull dedup, and
// the degree-balanced partitioner. Each knob may change how bytes move —
// never what the algorithms compute: min-combining workloads (BFS, SSSP,
// WCC) must agree EXACTLY with the knob off, PageRank to 1e-12 (mirroring
// and re-partitioning reorder floating-point sums). Modeled metrics must
// stay bit-identical across thread counts with every knob on.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algos/bfs.h"
#include "algos/lpa.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "core/engine.h"
#include "graph/generator.h"
#include "util/string_util.h"

namespace hybridgraph {
namespace {

/// Hotspot stress graph: 4 hubs at the front of the id range soak up half of
/// all edge targets (in-degree ~1500 vs ~4 background) and carry 100 extra
/// out-edges each.
EdgeListGraph HotspotGraph() {
  return GenerateHotspot(2000, 6.0, /*num_hubs=*/4, /*hub_in_fraction=*/0.5,
                         /*hub_out_degree=*/100, /*seed=*/0xA7);
}

constexpr uint32_t kMirrorThreshold = 100;

JobConfig Base(EngineMode mode, uint32_t threads = 1) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 4;
  cfg.num_threads = threads;
  cfg.msg_buffer_per_node = 400;
  cfg.max_supersteps = 30;
  return cfg;
}

template <typename P>
struct RunOutcome {
  std::vector<typename P::Value> values;
  JobStats stats;
};

template <typename P>
RunOutcome<P> RunEngine(const EdgeListGraph& g, P program, JobConfig cfg) {
  Engine<P> engine(cfg, program);
  EXPECT_TRUE(engine.Load(g).ok());
  EXPECT_TRUE(engine.Run().ok());
  RunOutcome<P> out;
  out.values = engine.GatherValues().ValueOrDie();
  out.stats = engine.stats();
  return out;
}

// ---------------------------------------------------------------- mirroring

class SkewArmorMirroring : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SkewArmorMirroring, MinCombiningWorkloadsExactlyUnchanged) {
  // Min-combiners are order-independent: folding hub messages into per-node
  // mirror accumulators must not show in the fixpoint at all.
  const auto g = HotspotGraph();
  for (const EngineMode mode : {EngineMode::kPush, EngineMode::kAdaptive}) {
    JobConfig off = Base(mode, GetParam());
    JobConfig on = off;
    on.mirror_degree_threshold = kMirrorThreshold;
    {
      SsspProgram p;
      p.source = 1000;
      EXPECT_EQ(RunEngine(g, p, off).values, RunEngine(g, p, on).values)
          << "sssp " << EngineModeName(mode);
    }
    {
      BfsProgram p;
      p.source = 1000;
      EXPECT_EQ(RunEngine(g, p, off).values, RunEngine(g, p, on).values)
          << "bfs " << EngineModeName(mode);
    }
    {
      WccProgram p;
      EXPECT_EQ(RunEngine(g, p, off).values, RunEngine(g, p, on).values)
          << "wcc " << EngineModeName(mode);
    }
  }
}

TEST_P(SkewArmorMirroring, PageRankAgreesToTolerance) {
  // Summation is where mirroring's re-association is visible: the hub's
  // addends arrive pre-folded per node, so compare with an epsilon instead
  // of bitwise.
  const auto g = HotspotGraph();
  JobConfig off = Base(EngineMode::kPush, GetParam());
  off.max_supersteps = 5;
  JobConfig on = off;
  on.mirror_degree_threshold = kMirrorThreshold;
  const auto base = RunEngine(g, PageRankProgram{}, off);
  const auto mirrored = RunEngine(g, PageRankProgram{}, on);
  ASSERT_EQ(base.values.size(), mirrored.values.size());
  for (size_t v = 0; v < base.values.size(); ++v) {
    ASSERT_NEAR(base.values[v], mirrored.values[v], 1e-12) << "v=" << v;
  }
  // And the armor must actually bite: hub traffic collapses to one record
  // per (node, hub) per superstep.
  EXPECT_LT(mirrored.stats.TotalNetBytes(), base.stats.TotalNetBytes());
}

INSTANTIATE_TEST_SUITE_P(Threads, SkewArmorMirroring,
                         ::testing::Values(1u, 8u), [](const auto& info) {
                           return StringFormat("t%u", info.param);
                         });

TEST(SkewArmorMirroring, RejectsNonCombinablePrograms) {
  // Mirror folding runs the combiner at the sender; without one the config
  // is invalid, not silently ignored.
  JobConfig cfg = Base(EngineMode::kPush);
  cfg.mirror_degree_threshold = kMirrorThreshold;
  Engine<LpaProgram> engine(cfg, LpaProgram{});
  EXPECT_FALSE(engine.Load(HotspotGraph()).ok());
}

TEST(SkewArmorMirroring, NoOpWhenNoVertexCrossesThreshold) {
  // A threshold above every in-degree must leave the modeled run untouched
  // (the mirror table is empty, so the path never diverts a message).
  const auto g = GenerateChain(100, 7);
  SsspProgram p;
  p.source = 0;
  JobConfig off = Base(EngineMode::kPush);
  JobConfig on = off;
  on.mirror_degree_threshold = 1000000;
  const auto a = RunEngine(g, p, off);
  const auto b = RunEngine(g, p, on);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.stats.TotalNetBytes(), b.stats.TotalNetBytes());
  EXPECT_EQ(a.stats.TotalMessages(), b.stats.TotalMessages());
}

// ------------------------------------------------------ request–respond dedup

TEST(SkewArmorDedup, BPullResultsAndMessageTotalsUnchanged) {
  // Dedup batches the per-(Vblock, node) requests into one per node pair;
  // the served messages — and therefore everything downstream — must be
  // identical, while the request count drops.
  const auto g = HotspotGraph();
  JobConfig legacy = Base(EngineMode::kBPull);
  legacy.vblocks_per_node = 4;  // >1 Vblock per node or there is nothing to dedup
  JobConfig dedup = legacy;
  dedup.request_respond_dedup = true;
  SsspProgram p;
  p.source = 1000;
  const auto a = RunEngine(g, p, legacy);
  const auto b = RunEngine(g, p, dedup);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.stats.TotalMessages(), b.stats.TotalMessages());
  EXPECT_GT(a.stats.TotalPullRequests(), b.stats.TotalPullRequests());
  EXPECT_GT(b.stats.TotalPullRequests(), 0u);
}

TEST(SkewArmorDedup, AdaptiveModeAgreesWithDedupOn) {
  const auto g = GenerateRmat(600, 3600, 5);
  BfsProgram p;
  p.source = 0;
  JobConfig off = Base(EngineMode::kAdaptive);
  JobConfig on = off;
  on.request_respond_dedup = true;
  EXPECT_EQ(RunEngine(g, p, off).values, RunEngine(g, p, on).values);
}

// -------------------------------------------------- degree-balanced partition

TEST(SkewArmorPartition, BalancedPartitionPreservesResultsAndCutsImbalance) {
  const auto g = HotspotGraph();
  JobConfig base = Base(EngineMode::kPush);
  JobConfig balanced = base;
  balanced.degree_balanced_partition = true;
  {
    // Exact for the min-combiner even though node boundaries moved.
    WccProgram p;
    EXPECT_EQ(RunEngine(g, p, base).values, RunEngine(g, p, balanced).values);
  }
  {
    PageRankProgram p;
    JobConfig b5 = base, bal5 = balanced;
    b5.max_supersteps = bal5.max_supersteps = 5;
    const auto a = RunEngine(g, p, b5);
    const auto b = RunEngine(g, p, bal5);
    ASSERT_EQ(a.values.size(), b.values.size());
    for (size_t v = 0; v < a.values.size(); ++v) {
      ASSERT_NEAR(a.values[v], b.values[v], 1e-12) << "v=" << v;
    }
    // The hub prefix no longer lands on one node: the per-superstep message
    // imbalance (max node share over the even share) must shrink.
    EXPECT_LT(b.stats.MaxMsgImbalance(), a.stats.MaxMsgImbalance());
    EXPECT_GE(b.stats.MaxMsgImbalance(), 1.0);
  }
}

// ------------------------------------------------- cross-thread determinism

TEST(SkewArmorThreads, AllKnobsOnModeledMetricsBitIdentical) {
  // The determinism contract holds with every skew knob armed at once:
  // mirror accumulators are per-node, adverts and dedup requests are staged
  // per sender and folded in fixed order.
  const auto g = HotspotGraph();
  auto run = [&](uint32_t threads) {
    JobConfig cfg = Base(EngineMode::kAdaptive, threads);
    cfg.mirror_degree_threshold = kMirrorThreshold;
    cfg.degree_balanced_partition = true;
    cfg.request_respond_dedup = true;
    SsspProgram p;
    p.source = 1000;
    return RunEngine(g, p, cfg);
  };
  const auto a = run(1);
  const auto b = run(8);
  EXPECT_EQ(a.values, b.values);
  ASSERT_EQ(a.stats.supersteps.size(), b.stats.supersteps.size());
  for (size_t t = 0; t < a.stats.supersteps.size(); ++t) {
    SCOPED_TRACE("superstep " + std::to_string(t));
    const SuperstepMetrics& x = a.stats.supersteps[t];
    const SuperstepMetrics& y = b.stats.supersteps[t];
    EXPECT_EQ(x.messages_produced, y.messages_produced);
    EXPECT_EQ(x.messages_on_wire, y.messages_on_wire);
    EXPECT_EQ(x.messages_combined, y.messages_combined);
    EXPECT_EQ(x.net_bytes, y.net_bytes);
    EXPECT_EQ(x.io.Total(), y.io.Total());
    EXPECT_EQ(x.cpu_seconds, y.cpu_seconds);
    EXPECT_EQ(x.pull_requests, y.pull_requests);
    EXPECT_EQ(x.edges_scanned, y.edges_scanned);
    EXPECT_EQ(x.msg_imbalance, y.msg_imbalance);
    EXPECT_EQ(x.edge_imbalance, y.edge_imbalance);
  }
}

}  // namespace
}  // namespace hybridgraph
