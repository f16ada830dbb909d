// GraphHP differential guarantees: intra-block asynchrony (kGraphHp) must
// reach the exact fixpoint of the synchronous paths — in fewer, cheaper
// supersteps for locally-iterable programs, and bit-for-bit push-identically
// for programs whose fold is not locally iterable. Sub-iteration accounting
// (local_iters / barriers_saved / local_msg_bytes) and the local.iter trace
// spans must agree, at any thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algos/bfs.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "core/engine.h"
#include "graph/generator.h"
#include "tests/core/reference_impls.h"
#include "util/failpoint.h"

namespace hybridgraph {
namespace {

// Strong locality + moderate degree so Vblocks hold real inner chains (a
// vertex is inner only when EVERY edge stays inside its Vblock) — the
// substrate sub-iterations collapse.
EdgeListGraph LocalityGraph(uint64_t seed = 11) {
  return GeneratePowerLaw(1000, 5.0, 0.8, seed, /*locality=*/0.95);
}

JobConfig Config(EngineMode mode, uint32_t threads = 1) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 4;
  cfg.num_threads = threads;
  cfg.msg_buffer_per_node = 120;
  cfg.max_supersteps = 200;
  // One Vblock per node: the boundary/inner split is the node partition, so
  // community-local graphs keep a large inner population.
  cfg.vblocks_per_node = 1;
  return cfg;
}

template <typename P>
struct RunOut {
  std::vector<typename P::Value> values;
  JobStats stats;
};

template <typename P>
RunOut<P> RunJob(const EdgeListGraph& g, P program, JobConfig cfg) {
  Engine<P> engine(cfg, program);
  EXPECT_TRUE(engine.Load(g).ok());
  EXPECT_TRUE(engine.Run().ok());
  return {engine.GatherValues().ValueOrDie(), engine.stats()};
}

uint64_t SumLocalIters(const JobStats& s) {
  uint64_t n = 0;
  for (const auto& m : s.supersteps) n += m.local_iters;
  return n;
}

uint64_t SumLocalMsgBytes(const JobStats& s) {
  uint64_t n = 0;
  for (const auto& m : s.supersteps) n += m.local_msg_bytes;
  return n;
}

uint64_t MaxBarriersSaved(const JobStats& s) {
  uint64_t n = 0;
  for (const auto& m : s.supersteps) n = std::max(n, m.barriers_saved);
  return n;
}

// --------------------------------------------------------- fixpoint identity

/// Shared skeleton: kGraphHp must match push/b-pull/hybrid exactly and use
/// strictly fewer barriers, with the savings visible in the new counters.
template <typename P>
void ExpectGhpDifferential(const EdgeListGraph& g, P program,
                           const std::vector<typename P::Value>& expected) {
  for (uint32_t threads : {1u, 8u}) {
    const auto push = RunJob(g, program, Config(EngineMode::kPush, threads));
    const auto bpull = RunJob(g, program, Config(EngineMode::kBPull, threads));
    const auto hybrid = RunJob(g, program, Config(EngineMode::kHybrid, threads));
    const auto ghp = RunJob(g, program, Config(EngineMode::kGraphHp, threads));
    EXPECT_TRUE(push.stats.converged && ghp.stats.converged) << "t" << threads;
    EXPECT_EQ(push.values, expected) << "t" << threads;
    EXPECT_EQ(bpull.values, expected) << "t" << threads;
    EXPECT_EQ(hybrid.values, expected) << "t" << threads;
    EXPECT_EQ(ghp.values, expected) << "t" << threads;
    // Collapsing intra-block chains in memory must shed global barriers.
    EXPECT_LT(ghp.stats.supersteps.size(), push.stats.supersteps.size())
        << "t" << threads;
    EXPECT_GT(SumLocalIters(ghp.stats), 0u) << "t" << threads;
    EXPECT_GT(SumLocalMsgBytes(ghp.stats), 0u) << "t" << threads;
    EXPECT_GT(MaxBarriersSaved(ghp.stats), 0u) << "t" << threads;
    // The synchronous paths never report sub-iteration work.
    EXPECT_EQ(SumLocalIters(push.stats), 0u);
    EXPECT_EQ(SumLocalIters(bpull.stats), 0u);
    EXPECT_EQ(MaxBarriersSaved(push.stats), 0u);
  }
}

TEST(GhpDifferential, SsspExactFixpointInFewerSupersteps) {
  const auto g = LocalityGraph();
  SsspProgram program;
  program.source = 17;
  const auto reference = ReferenceSssp(g, program.source);
  ExpectGhpDifferential(g, program, reference);
}

TEST(GhpDifferential, BfsExactFixpointInFewerSupersteps) {
  const auto g = LocalityGraph(29);
  BfsProgram program;
  program.source = 3;
  const auto reference = ReferenceBfs(g, program.source);
  ExpectGhpDifferential(g, program, reference);
}

TEST(GhpDifferential, WccExactFixpointInFewerSupersteps) {
  const auto g = LocalityGraph(23);
  const auto reference = ReferenceMinLabel(g);
  ExpectGhpDifferential(g, WccProgram{}, reference);
}

TEST(GhpDifferential, PageRankIsBitIdenticalToPush) {
  // PageRank's sum fold is not locally iterable, so GhpPath must degrade to
  // EXACT PushPath behavior: same values, same modeled metrics, zero
  // sub-iteration work — only the mode tag differs.
  const auto g = LocalityGraph();
  for (uint32_t threads : {1u, 8u}) {
    JobConfig push_cfg = Config(EngineMode::kPush, threads);
    JobConfig ghp_cfg = Config(EngineMode::kGraphHp, threads);
    push_cfg.max_supersteps = 6;
    ghp_cfg.max_supersteps = 6;
    const auto push = RunJob(g, PageRankProgram{}, push_cfg);
    const auto ghp = RunJob(g, PageRankProgram{}, ghp_cfg);
    EXPECT_EQ(push.values, ghp.values);
    ASSERT_EQ(push.stats.supersteps.size(), ghp.stats.supersteps.size());
    for (size_t t = 0; t < push.stats.supersteps.size(); ++t) {
      const auto& a = push.stats.supersteps[t];
      const auto& b = ghp.stats.supersteps[t];
      EXPECT_EQ(b.mode, EngineMode::kGraphHp);
      EXPECT_EQ(a.messages_produced, b.messages_produced) << t;
      EXPECT_EQ(a.messages_on_wire, b.messages_on_wire) << t;
      EXPECT_EQ(a.net_bytes, b.net_bytes) << t;
      EXPECT_EQ(a.io.Total(), b.io.Total()) << t;
      EXPECT_EQ(a.cpu_seconds, b.cpu_seconds) << t;
      EXPECT_EQ(b.local_iters, 0u) << t;
      EXPECT_EQ(b.barriers_saved, 0u) << t;
      EXPECT_EQ(b.local_msg_bytes, 0u) << t;
    }
  }
}

// ------------------------------------------------------ determinism + bounds

TEST(GhpDeterminism, ModeledMetricsBitIdenticalAcrossThreadCounts) {
  const auto g = LocalityGraph();
  SsspProgram program;
  program.source = 17;
  const auto t1 = RunJob(g, program, Config(EngineMode::kGraphHp, 1));
  const auto t8 = RunJob(g, program, Config(EngineMode::kGraphHp, 8));
  EXPECT_EQ(t1.values, t8.values);
  ASSERT_EQ(t1.stats.supersteps.size(), t8.stats.supersteps.size());
  for (size_t t = 0; t < t1.stats.supersteps.size(); ++t) {
    const auto& a = t1.stats.supersteps[t];
    const auto& b = t8.stats.supersteps[t];
    EXPECT_EQ(a.active_vertices, b.active_vertices) << t;
    EXPECT_EQ(a.responding_vertices, b.responding_vertices) << t;
    EXPECT_EQ(a.messages_produced, b.messages_produced) << t;
    EXPECT_EQ(a.messages_on_wire, b.messages_on_wire) << t;
    EXPECT_EQ(a.net_bytes, b.net_bytes) << t;
    EXPECT_EQ(a.io.Total(), b.io.Total()) << t;
    EXPECT_EQ(a.cpu_seconds, b.cpu_seconds) << t;
    EXPECT_EQ(a.local_iters, b.local_iters) << t;
    EXPECT_EQ(a.barriers_saved, b.barriers_saved) << t;
    EXPECT_EQ(a.local_msg_bytes, b.local_msg_bytes) << t;
  }
}

TEST(GhpCap, CapOfOneDisablesLocalDeliveryButStaysCorrect) {
  // ghp_max_local_iters counts TOTAL sweeps including the global Phase B, so
  // a cap of 1 means every locally-generated message is carried into the
  // inbox — the push schedule, with the sidecar read as the only overhead.
  const auto g = LocalityGraph();
  SsspProgram program;
  program.source = 17;
  const auto reference = ReferenceSssp(g, program.source);
  JobConfig cfg = Config(EngineMode::kGraphHp);
  cfg.ghp_max_local_iters = 1;
  const auto capped = RunJob(g, program, cfg);
  const auto push = RunJob(g, program, Config(EngineMode::kPush));
  EXPECT_EQ(capped.values, reference);
  EXPECT_EQ(SumLocalIters(capped.stats), 0u);
  EXPECT_EQ(MaxBarriersSaved(capped.stats), 0u);
  EXPECT_EQ(capped.stats.supersteps.size(), push.stats.supersteps.size());
}

TEST(GhpCap, DepthNeverExceedsConfiguredSweeps) {
  const auto g = LocalityGraph();
  SsspProgram program;
  program.source = 17;
  for (uint32_t cap : {2u, 3u, 5u}) {
    JobConfig cfg = Config(EngineMode::kGraphHp);
    cfg.ghp_max_local_iters = cap;
    const auto out = RunJob(g, program, cfg);
    // barriers_saved folds as max local depth; the global Phase B itself is
    // sweep 1 of the budget.
    EXPECT_LE(MaxBarriersSaved(out.stats), static_cast<uint64_t>(cap) - 1)
        << "cap=" << cap;
    EXPECT_EQ(out.values, ReferenceSssp(g, program.source)) << "cap=" << cap;
  }
}

// ----------------------------------------------------------- trace + faults

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

size_t CountOccurrences(const std::string& hay, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(GhpTrace, LocalIterSpansMatchCounters) {
  const std::string path = ::testing::TempDir() + "/hg_ghp_trace_test.json";
  std::remove(path.c_str());
  const auto g = LocalityGraph();
  SsspProgram program;
  program.source = 17;
  JobConfig cfg = Config(EngineMode::kGraphHp, 2);
  cfg.trace_path = path;
  const auto out = RunJob(g, program, cfg);
  const std::string json = ReadFileOrEmpty(path);
  ASSERT_FALSE(json.empty());
  // One local.iter span per sub-iteration round per (node, Vblock) — exactly
  // what the local_iters column folds.
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"local.iter\""),
            static_cast<size_t>(SumLocalIters(out.stats)));
  EXPECT_GT(SumLocalIters(out.stats), 0u);
  std::remove(path.c_str());
}

TEST(GhpFailPoint, LocalSubIterationErrorPropagates) {
  const auto g = LocalityGraph();
  SsspProgram program;
  program.source = 17;
  Engine<SsspProgram> engine(Config(EngineMode::kGraphHp), program);
  ASSERT_TRUE(engine.Load(g).ok());
  FailPointScope fp("ghp.local=error:max=1");
  const Status st = engine.Run();
  EXPECT_FALSE(st.ok());
  EXPECT_GE(FailPointRegistry::Instance().fires("ghp.local"), 1u);
}

}  // namespace
}  // namespace hybridgraph
