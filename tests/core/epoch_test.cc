// Differential tests for streaming epochs: after every ingested batch the
// epoch engine's fixpoint must match a cold batch run over the mutated
// graph — exactly for the monotone traversal programs (SSSP/BFS/WCC), and
// within 1e-12 for PageRankDelta when both sides converge at a tight
// tolerance. Modeled metrics must be bit-identical across thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <memory>
#include <vector>

#include "core/epoch_driver.h"
#include "graph/edge_delta.h"
#include "graph/generator.h"

namespace hybridgraph {
namespace {

EdgeListGraph TestGraph(uint64_t n = 400, uint64_t seed = 77) {
  return GeneratePowerLaw(n, 6.0, 0.75, seed);
}

JobConfig Base(EngineMode mode, uint32_t threads = 1) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 2;
  cfg.num_threads = threads;
  cfg.msg_buffer_per_node = 200;
  cfg.max_supersteps = 100;
  return cfg;
}

std::vector<EdgeBatch> Stream(const EdgeListGraph& g, uint32_t batches,
                              uint32_t size, double deletes, uint64_t seed) {
  EdgeStreamOptions so;
  so.num_batches = batches;
  so.batch_size = size;
  so.delete_fraction = deletes;
  so.seed = seed;
  return GenerateEdgeStream(g, so);
}

/// Cold oracle: a fresh engine over the mutated graph, converged from
/// InitValue state — what each epoch's fixpoint must reproduce.
std::vector<double> ColdValues(const JobConfig& cfg, const EpochAlgoSpec& spec,
                               const EdgeListGraph& graph) {
  auto engine = MakeEpochEngine(cfg, spec).ValueOrDie();
  EXPECT_TRUE(engine->Load(graph).ok());
  EXPECT_TRUE(engine->RunInitial().ok());
  return engine->Values().ValueOrDie();
}

/// Runs `stream` through one epoch engine, comparing values to the cold
/// oracle after every epoch. `tol` = 0 demands exact equality.
void RunDifferential(const JobConfig& cfg, const EpochAlgoSpec& spec,
                     EdgeListGraph graph, const std::vector<EdgeBatch>& stream,
                     double tol, std::vector<EpochMetrics>* metrics = nullptr) {
  auto epoch_engine = MakeEpochEngine(cfg, spec).ValueOrDie();
  ASSERT_TRUE(epoch_engine->Load(graph).ok());
  ASSERT_TRUE(epoch_engine->RunInitial().ok());
  for (size_t i = 0; i < stream.size(); ++i) {
    EpochMetrics m;
    ASSERT_TRUE(epoch_engine->RunEpoch(stream[i], &m).ok())
        << spec.name << " epoch " << i;
    EXPECT_TRUE(epoch_engine->converged());
    if (metrics != nullptr) metrics->push_back(m);

    ApplyBatchToGraph(&graph, stream[i]);
    const std::vector<double> got = epoch_engine->Values().ValueOrDie();
    const std::vector<double> want = ColdValues(cfg, spec, graph);
    ASSERT_EQ(got.size(), want.size());
    for (size_t v = 0; v < got.size(); ++v) {
      if (tol == 0.0) {
        ASSERT_EQ(got[v], want[v])
            << spec.name << " epoch " << i << " vertex " << v;
      } else {
        ASSERT_NEAR(got[v], want[v], tol)
            << spec.name << " epoch " << i << " vertex " << v;
      }
    }
  }
}

// ------------------------------------------------------------ monotone exact

TEST(EpochDifferential, SsspInsertOnlyWarmEpochsExact) {
  EdgeListGraph g = TestGraph();
  EpochAlgoSpec spec;
  spec.name = "sssp";
  auto stream = Stream(g, 3, 40, 0.0, 901);
  std::vector<EpochMetrics> metrics;
  RunDifferential(Base(EngineMode::kHybrid), spec, g, stream, 0.0, &metrics);
  for (const auto& m : metrics) EXPECT_TRUE(m.warm);
}

TEST(EpochDifferential, SsspDeleteBatchesReinitExact) {
  EdgeListGraph g = TestGraph();
  EpochAlgoSpec spec;
  spec.name = "sssp";
  auto stream = Stream(g, 3, 40, 0.5, 902);
  std::vector<EpochMetrics> metrics;
  RunDifferential(Base(EngineMode::kHybrid), spec, g, stream, 0.0, &metrics);
  bool any_cold = false;
  for (const auto& m : metrics) any_cold |= !m.warm;
  EXPECT_TRUE(any_cold);  // delete batches must take the reinit path
}

TEST(EpochDifferential, BfsEpochsExact) {
  EdgeListGraph g = TestGraph(400, 78);
  EpochAlgoSpec spec;
  spec.name = "bfs";
  RunDifferential(Base(EngineMode::kHybrid), spec, g,
                  Stream(g, 2, 40, 0.0, 903), 0.0);
  RunDifferential(Base(EngineMode::kHybrid), spec, g,
                  Stream(g, 2, 40, 0.5, 904), 0.0);
}

TEST(EpochDifferential, WccEpochsExact) {
  EdgeListGraph g = TestGraph(400, 79);
  EpochAlgoSpec spec;
  spec.name = "wcc";
  RunDifferential(Base(EngineMode::kHybrid), spec, g,
                  Stream(g, 2, 40, 0.0, 905), 0.0);
  RunDifferential(Base(EngineMode::kHybrid), spec, g,
                  Stream(g, 2, 40, 0.5, 906), 0.0);
}

TEST(EpochDifferential, SsspExactAcrossAllBlockModes) {
  EdgeListGraph g = TestGraph(300, 80);
  EpochAlgoSpec spec;
  spec.name = "sssp";
  auto stream = Stream(g, 2, 30, 0.25, 907);
  for (EngineMode mode : {EngineMode::kPush, EngineMode::kPushM,
                          EngineMode::kBPull, EngineMode::kHybrid,
                          EngineMode::kGraphHp}) {
    RunDifferential(Base(mode), spec, g, stream, 0.0);
  }
}

TEST(EpochDifferential, GraphHpEpochsExact) {
  // Streaming under kGraphHp: ApplyEdgeBatch reclassifies only the touched
  // Vblocks (cross-in deltas routed to destination owners), so every warm
  // epoch's sub-iterations must still reach the exact cold fixpoint.
  for (const char* algo : {"sssp", "bfs", "wcc"}) {
    EdgeListGraph g = TestGraph(400, 83);
    EpochAlgoSpec spec;
    spec.name = algo;
    RunDifferential(Base(EngineMode::kGraphHp), spec, g,
                    Stream(g, 3, 40, 0.0, 910), 0.0);
    RunDifferential(Base(EngineMode::kGraphHp), spec, g,
                    Stream(g, 2, 40, 0.5, 911), 0.0);
  }
}

// ------------------------------------------------------- pagerank tolerance

TEST(EpochDifferential, PageRankDeltaEpochsWithin1e12) {
  EdgeListGraph g = TestGraph(300, 81);
  EpochAlgoSpec spec;
  spec.name = "pagerank-delta";
  // Both sides land within ~t*d/(1-d) of the unique fixpoint; at t = 1e-14
  // that band is ~6e-14, comfortably inside the 1e-12 budget.
  spec.tolerance = 1e-14;
  JobConfig cfg = Base(EngineMode::kHybrid);
  cfg.max_supersteps = 600;
  RunDifferential(cfg, spec, g, Stream(g, 2, 30, 0.3, 908), 1e-12);
}

TEST(EpochDifferential, PageRankDeltaWarmEpochsAreCheaper) {
  EdgeListGraph g = TestGraph(400, 82);
  EpochAlgoSpec spec;
  spec.name = "pagerank-delta";
  spec.tolerance = 1e-10;
  JobConfig cfg = Base(EngineMode::kHybrid);
  cfg.max_supersteps = 400;

  auto engine = MakeEpochEngine(cfg, spec).ValueOrDie();
  ASSERT_TRUE(engine->Load(g).ok());
  ASSERT_TRUE(engine->RunInitial().ok());
  const uint64_t cold_supersteps = engine->stats().supersteps.size();

  auto stream = Stream(g, 2, 10, 0.0, 909);
  for (const auto& batch : stream) {
    EpochMetrics m;
    ASSERT_TRUE(engine->RunEpoch(batch, &m).ok());
    EXPECT_TRUE(m.warm);
    // The delta-propagation saving: reconverging from the previous fixpoint
    // after a small batch takes fewer supersteps than the cold run.
    EXPECT_LT(m.supersteps, cold_supersteps);
  }
}

// ------------------------------------------------- pinned epoch starts

/// What one hybrid epoch did, as pinned by HybridEpochStartsPinned.
struct PinnedEpoch {
  EngineMode first_mode;  ///< production mode of the epoch's first superstep
  uint64_t supersteps;
  double modeled_seconds;
  uint64_t read_bytes;
  uint64_t write_bytes;
  uint64_t net_bytes;
};

void ExpectPinnedEpochs(const EpochAlgoSpec& spec, const EdgeListGraph& g,
                        const std::vector<EdgeBatch>& stream,
                        const std::vector<PinnedEpoch>& want) {
  JobConfig cfg = Base(EngineMode::kHybrid);
  cfg.max_supersteps = 400;
  auto engine = MakeEpochEngine(cfg, spec).ValueOrDie();
  ASSERT_TRUE(engine->Load(g).ok());
  ASSERT_TRUE(engine->RunInitial().ok());
  ASSERT_EQ(stream.size(), want.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    SCOPED_TRACE(spec.name + " epoch " + std::to_string(i));
    const size_t first = engine->stats().supersteps.size();
    EpochMetrics m;
    ASSERT_TRUE(engine->RunEpoch(stream[i], &m).ok());
    ASSERT_GT(engine->stats().supersteps.size(), first);
    const EngineMode mode = engine->stats().supersteps[first].mode;
    EXPECT_EQ(mode, want[i].first_mode);
    EXPECT_EQ(m.supersteps, want[i].supersteps);
    EXPECT_EQ(m.modeled_seconds, want[i].modeled_seconds);
    EXPECT_EQ(m.read_bytes, want[i].read_bytes);
    EXPECT_EQ(m.write_bytes, want[i].write_bytes);
    EXPECT_EQ(m.net_bytes, want[i].net_bytes);
  }
}

TEST(EpochDifferential, HybridEpochStartsPinned) {
  // The hybrid initial-mode decision at every epoch start (Theorem 2 over
  // the epoch's frontier and the mutated stores) and what each epoch then
  // costs, pinned for the three seeding paths: seed-all (PageRankDelta),
  // touched endpoints (SSSP insert-only) and reinit (SSSP with deletes).
  const EdgeListGraph g = TestGraph(400, 86);
  EpochAlgoSpec pr;
  pr.name = "pagerank-delta";
  pr.tolerance = 1e-10;
  ExpectPinnedEpochs(
      pr, g, Stream(g, 3, 40, 0.25, 912),
      {{EngineMode::kBPull, 55, 0.062885535928577277, 2487126, 381189, 178838},
       {EngineMode::kBPull, 60, 0.069964660570178194, 2767914, 415370, 197694},
       {EngineMode::kBPull, 59, 0.069849942610110183, 2764025, 408995,
        198114}});
  EpochAlgoSpec sssp;
  sssp.name = "sssp";
  ExpectPinnedEpochs(
      sssp, g, Stream(g, 3, 40, 0.0, 913),
      {{EngineMode::kBPull, 5, 0.00093347803697858573, 112471, 38384, 1384},
       {EngineMode::kPush, 7, 0.00050542352440970367, 111045, 39576, 881},
       {EngineMode::kBPull, 6, 0.00099390944955735083, 123477, 42828, 1656}});
  ExpectPinnedEpochs(
      sssp, g, Stream(g, 3, 40, 0.5, 914),
      {{EngineMode::kPush, 13, 0.0040987056894792899, 314693, 84920, 7826},
       {EngineMode::kPush, 13, 0.0040299396831403513, 312192, 82587, 7862},
       {EngineMode::kPush, 13, 0.0040312010744004041, 316728, 82116, 7880}});
}

// -------------------------------------------------- thread-count invariance

TEST(EpochDifferential, ModeledMetricsBitIdenticalAcrossThreadCounts) {
  EdgeListGraph g = TestGraph(300, 83);
  EpochAlgoSpec spec;
  spec.name = "sssp";
  auto stream = Stream(g, 3, 30, 0.4, 910);

  auto run = [&](uint32_t threads) {
    auto engine =
        MakeEpochEngine(Base(EngineMode::kHybrid, threads), spec).ValueOrDie();
    EXPECT_TRUE(engine->Load(g).ok());
    EXPECT_TRUE(engine->RunInitial().ok());
    std::vector<EpochMetrics> ms;
    for (const auto& batch : stream) {
      EpochMetrics m;
      EXPECT_TRUE(engine->RunEpoch(batch, &m).ok());
      ms.push_back(m);
    }
    return std::make_pair(ms, engine->Values().ValueOrDie());
  };

  const auto [m1, v1] = run(1);
  const auto [m8, v8] = run(8);
  ASSERT_EQ(m1.size(), m8.size());
  for (size_t i = 0; i < m1.size(); ++i) {
    EXPECT_EQ(m1[i].supersteps, m8[i].supersteps) << "epoch " << i;
    EXPECT_EQ(m1[i].read_bytes, m8[i].read_bytes) << "epoch " << i;
    EXPECT_EQ(m1[i].write_bytes, m8[i].write_bytes) << "epoch " << i;
    EXPECT_EQ(m1[i].net_bytes, m8[i].net_bytes) << "epoch " << i;
    EXPECT_EQ(m1[i].modeled_seconds, m8[i].modeled_seconds) << "epoch " << i;
    EXPECT_EQ(m1[i].touched_vertices, m8[i].touched_vertices);
    EXPECT_EQ(m1[i].warm, m8[i].warm);
  }
  EXPECT_EQ(v1, v8);
}

// ----------------------------------------------------------------- guard rails

TEST(EpochDifferential, VPullModeRejected) {
  JobConfig cfg = Base(EngineMode::kVPull);
  EXPECT_FALSE(MakeEpochEngine(cfg, EpochAlgoSpec{}).ok());
}

TEST(EpochDifferential, UnknownAlgorithmRejected) {
  EpochAlgoSpec spec;
  spec.name = "nope";
  EXPECT_FALSE(MakeEpochEngine(Base(EngineMode::kHybrid), spec).ok());
}

TEST(EpochDifferential, OutOfRangeEndpointRejected) {
  EdgeListGraph g = TestGraph(100, 84);
  auto engine =
      MakeEpochEngine(Base(EngineMode::kHybrid), EpochAlgoSpec{}).ValueOrDie();
  ASSERT_TRUE(engine->Load(g).ok());
  ASSERT_TRUE(engine->RunInitial().ok());
  EdgeBatch bad;
  bad.deltas.push_back({5, 100, 1.0f, false});  // dst out of range
  EXPECT_FALSE(engine->RunEpoch(bad, nullptr).ok());
}

TEST(EpochDifferential, CompactionBetweenEpochsPreservesFixpoints) {
  EdgeListGraph g = TestGraph(300, 85);
  EpochAlgoSpec spec;
  spec.name = "wcc";
  JobConfig cfg = Base(EngineMode::kBPull);
  auto engine = MakeEpochEngine(cfg, spec).ValueOrDie();
  ASSERT_TRUE(engine->Load(g).ok());
  ASSERT_TRUE(engine->RunInitial().ok());
  EdgeListGraph mutated = g;
  for (const auto& batch : Stream(g, 3, 30, 0.3, 911)) {
    ASSERT_TRUE(engine->RunEpoch(batch, nullptr).ok());
    ASSERT_TRUE(engine->CompactAll(1).ok());
    ApplyBatchToGraph(&mutated, batch);
    EXPECT_EQ(engine->Values().ValueOrDie(), ColdValues(cfg, spec, mutated));
  }
}

}  // namespace
}  // namespace hybridgraph
