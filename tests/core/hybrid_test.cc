// Hybrid switching behavior: the Q_t metric, Theorem-2 initial mode,
// Δt suppression, switch supersteps, and prediction traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "core/engine.h"
#include "graph/generator.h"

namespace hybridgraph {
namespace {

EdgeListGraph LocalGraph() {
  // Strong locality -> few fragments -> Theorem 2 favors b-pull.
  return GeneratePowerLaw(2000, 12.0, 0.7, 5, /*locality=*/0.9);
}

EdgeListGraph ScatteredGraph() {
  // No locality + high skew -> many fragments (the twi-like case).
  return GeneratePowerLaw(2000, 12.0, 1.05, 5, /*locality=*/0.0);
}

TEST(Hybrid, Theorem2PicksBPullOnLocalGraph) {
  JobConfig cfg;
  cfg.mode = EngineMode::kHybrid;
  cfg.num_nodes = 4;
  cfg.msg_buffer_per_node = 200;  // B = 800 << |E|/2 - f
  cfg.max_supersteps = 3;
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  ASSERT_TRUE(engine.Load(LocalGraph()).ok());
  EXPECT_GT(engine.b_lower_bound(), 800u);
  EXPECT_EQ(engine.current_mode(), EngineMode::kBPull);
}

TEST(Hybrid, Theorem2PicksPushWhenFragmentsDominate) {
  // The literal Table-3 Theorem-2 rule: f close to |E| -> B_perp = 0 ->
  // start in push.
  JobConfig cfg;
  cfg.mode = EngineMode::kHybrid;
  cfg.num_nodes = 4;
  cfg.msg_buffer_per_node = 200;
  cfg.vblocks_per_node = 60;  // force heavy fragmentation
  cfg.qt_use_table3_throughputs = true;
  cfg.max_supersteps = 3;
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  ASSERT_TRUE(engine.Load(ScatteredGraph()).ok());
  EXPECT_EQ(engine.b_lower_bound(), 0u);
  EXPECT_EQ(engine.current_mode(), EngineMode::kPush);
}

TEST(Hybrid, InitialModePushWhenBufferHoldsAllMessages) {
  // Runtime-model initial rule: with B >= |E| nothing would ever spill, so
  // push is free of message I/O and avoids b-pull's fragment overheads.
  JobConfig cfg;
  cfg.mode = EngineMode::kHybrid;
  cfg.num_nodes = 4;
  cfg.msg_buffer_per_node = 10000;  // B=40000 > |E|
  cfg.max_supersteps = 3;
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  ASSERT_TRUE(engine.Load(ScatteredGraph()).ok());
  EXPECT_EQ(engine.current_mode(), EngineMode::kPush);
}

TEST(Hybrid, SufficientMemoryRunsBPull) {
  JobConfig cfg;
  cfg.mode = EngineMode::kHybrid;
  cfg.num_nodes = 4;
  cfg.memory_resident = true;
  cfg.max_supersteps = 4;
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  ASSERT_TRUE(engine.Load(LocalGraph()).ok());
  ASSERT_TRUE(engine.Run().ok());
  for (const auto& s : engine.stats().supersteps) {
    EXPECT_EQ(s.mode, EngineMode::kBPull) << "superstep " << s.superstep;
  }
}

TEST(Hybrid, PageRankStaysInBPullUnderLimitedMemory) {
  // Message volume stays maximal for PageRank, so Q_t should stay positive
  // and hybrid should behave exactly like b-pull (paper Fig 8).
  JobConfig cfg;
  cfg.mode = EngineMode::kHybrid;
  cfg.num_nodes = 4;
  cfg.msg_buffer_per_node = 200;
  cfg.max_supersteps = 6;
  Engine<PageRankProgram> hybrid(cfg, PageRankProgram{});
  ASSERT_TRUE(hybrid.Load(LocalGraph()).ok());
  ASSERT_TRUE(hybrid.Run().ok());
  int bpull_steps = 0;
  for (const auto& s : hybrid.stats().supersteps) {
    bpull_steps += s.mode == EngineMode::kBPull;
    EXPECT_GE(s.q_t, 0.0) << "superstep " << s.superstep;
  }
  EXPECT_EQ(bpull_steps, 6);

  JobConfig bcfg = cfg;
  bcfg.mode = EngineMode::kBPull;
  Engine<PageRankProgram> bpull(bcfg, PageRankProgram{});
  ASSERT_TRUE(bpull.Load(LocalGraph()).ok());
  ASSERT_TRUE(bpull.Run().ok());
  EXPECT_NEAR(hybrid.stats().modeled_seconds, bpull.stats().modeled_seconds,
              bpull.stats().modeled_seconds * 0.05);
}

TEST(Hybrid, SsspSwitchesToPushInConvergentTail) {
  // As the SSSP frontier dies down the message volume collapses and push
  // becomes the profitable mode (paper Fig 14a switch at superstep 11).
  const auto g = GeneratePowerLaw(2000, 12.0, 0.9, 5, /*locality=*/0.7);
  SsspProgram program;
  program.source = 1;
  JobConfig cfg;
  cfg.mode = EngineMode::kHybrid;
  cfg.num_nodes = 4;
  cfg.msg_buffer_per_node = 100;
  cfg.max_supersteps = 120;
  Engine<SsspProgram> engine(cfg, program);
  ASSERT_TRUE(engine.Load(g).ok());
  ASSERT_TRUE(engine.Run().ok());
  const auto& steps = engine.stats().supersteps;
  int switches = 0;
  for (const auto& s : steps) switches += s.switched ? 1 : 0;
  bool saw_push = false, saw_bpull = false;
  for (const auto& s : steps) {
    saw_push |= s.mode == EngineMode::kPush;
    saw_bpull |= s.mode == EngineMode::kBPull;
  }
  EXPECT_TRUE(saw_push);
  EXPECT_TRUE(saw_bpull);
  EXPECT_GE(switches, 1);
  // The message-heaviest superstep must run under b-pull, and the convergent
  // tail must end in push — the Fig 14a pattern. (The job *starts* in push:
  // the initial-mode estimate sees SSSP's one-vertex frontier.)
  const auto peak = std::max_element(
      steps.begin(), steps.end(), [](const auto& a, const auto& b) {
        return a.messages_produced < b.messages_produced;
      });
  EXPECT_EQ(peak->mode, EngineMode::kBPull);
  EXPECT_EQ(steps.back().mode, EngineMode::kPush);
}

TEST(Hybrid, SsspBouncesOnScatteredSkewedGraph) {
  // On a twi-like graph (high skew, no locality, B near the Theorem-2
  // bound) hybrid starts in push, hops to b-pull for the message-heavy
  // middle supersteps, then returns to push for the tail — both switch
  // points of Fig 14a.
  const auto g = GeneratePowerLaw(2000, 12.0, 1.0, 5, /*locality=*/0.5);
  SsspProgram program;
  program.source = 1;
  JobConfig cfg;
  cfg.mode = EngineMode::kHybrid;
  cfg.num_nodes = 4;
  cfg.msg_buffer_per_node = 100;
  cfg.max_supersteps = 120;
  Engine<SsspProgram> engine(cfg, program);
  ASSERT_TRUE(engine.Load(g).ok());
  ASSERT_TRUE(engine.Run().ok());
  const auto& steps = engine.stats().supersteps;
  int switches = 0;
  bool saw_bpull = false;
  for (const auto& s : steps) {
    switches += s.switched ? 1 : 0;
    saw_bpull |= s.mode == EngineMode::kBPull;
  }
  EXPECT_GE(switches, 2);
  EXPECT_TRUE(saw_bpull);
  EXPECT_EQ(steps.back().mode, EngineMode::kPush);
}

TEST(Hybrid, SwitchIntervalSuppressesFlapping) {
  const auto g = GeneratePowerLaw(2000, 12.0, 1.0, 5, /*locality=*/0.5);
  SsspProgram program;
  program.source = 1;
  JobConfig cfg;
  cfg.mode = EngineMode::kHybrid;
  cfg.num_nodes = 4;
  cfg.msg_buffer_per_node = 100;
  cfg.switch_interval = 2;
  cfg.max_supersteps = 120;
  Engine<SsspProgram> engine(cfg, program);
  ASSERT_TRUE(engine.Load(g).ok());
  ASSERT_TRUE(engine.Run().ok());
  const auto& steps = engine.stats().supersteps;
  int last_switch = -10;
  for (const auto& s : steps) {
    if (s.switched) {
      EXPECT_GE(s.superstep - last_switch, cfg.switch_interval);
      last_switch = s.superstep;
    }
  }
}

TEST(Hybrid, ForcedInitialModeRespected) {
  JobConfig cfg;
  cfg.mode = EngineMode::kHybrid;
  cfg.num_nodes = 4;
  cfg.msg_buffer_per_node = 200;
  cfg.force_initial_mode = true;
  cfg.initial_mode = EngineMode::kPush;
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  ASSERT_TRUE(engine.Load(LocalGraph()).ok());
  EXPECT_EQ(engine.current_mode(), EngineMode::kPush);
}

TEST(Hybrid, PredictionTracePopulated) {
  const auto g = LocalGraph();
  SsspProgram program;
  program.source = 1;
  JobConfig cfg;
  cfg.mode = EngineMode::kHybrid;
  cfg.num_nodes = 4;
  cfg.msg_buffer_per_node = 300;
  cfg.max_supersteps = 40;
  Engine<SsspProgram> engine(cfg, program);
  ASSERT_TRUE(engine.Load(g).ok());
  ASSERT_TRUE(engine.Run().ok());
  const auto& steps = engine.stats().supersteps;
  int populated = 0;
  for (const auto& s : steps) {
    if (s.actual_cio_push > 0 || s.actual_cio_bpull > 0) ++populated;
  }
  EXPECT_GT(populated, 3);
}

/// Runs a hybrid job and renders its production-mode trace as one character
/// per superstep ('P' = push, 'B' = b-pull, 'G' = graphhp) plus the list of
/// supersteps whose record carries the switched flag, e.g.
/// "PPBBBBPP switches=[2,6]".
template <typename P>
std::string ModeTrace(const EdgeListGraph& g, P program, JobConfig cfg) {
  Engine<P> engine(cfg, program);
  Status st = engine.Load(g);
  if (!st.ok()) return "LOAD-FAIL: " + st.ToString();
  st = engine.Run();
  if (!st.ok()) return "RUN-FAIL: " + st.ToString();
  std::string trace;
  std::string switches;
  for (const auto& s : engine.stats().supersteps) {
    trace += s.mode == EngineMode::kPush
                 ? 'P'
                 : (s.mode == EngineMode::kBPull ? 'B' : '?');
    if (s.switched) {
      if (!switches.empty()) switches += ',';
      switches += std::to_string(s.superstep);
    }
  }
  return trace + " switches=[" + switches + "]";
}

JobConfig HybridConfig(uint64_t msg_buffer, int max_supersteps) {
  JobConfig cfg;
  cfg.mode = EngineMode::kHybrid;
  cfg.num_nodes = 4;
  cfg.msg_buffer_per_node = msg_buffer;
  cfg.max_supersteps = max_supersteps;
  return cfg;
}

// Golden switch-sequence traces. These pin the exact Eq. (11) decision
// sequence — graph generation, the Q_t inputs, Δt suppression and the
// switch supersteps are all deterministic, so any refactor of the engine
// pipeline must reproduce these strings bit-for-bit.
TEST(HybridGolden, PageRankLocalStaysInBPull) {
  EXPECT_EQ(ModeTrace(LocalGraph(), PageRankProgram{}, HybridConfig(200, 6)),
            "BBBBBB switches=[]");
}

TEST(HybridGolden, SsspFig14aSwitchSequence) {
  SsspProgram program;
  program.source = 1;
  EXPECT_EQ(ModeTrace(GeneratePowerLaw(2000, 12.0, 0.9, 5, /*locality=*/0.7),
                      program, HybridConfig(100, 120)),
            "PPBBBBBBBBBBPPPP switches=[2,12]");
}

TEST(HybridGolden, SsspScatteredSwitchSequence) {
  SsspProgram program;
  program.source = 1;
  EXPECT_EQ(ModeTrace(GeneratePowerLaw(2000, 12.0, 1.0, 5, /*locality=*/0.5),
                      program, HybridConfig(100, 120)),
            "PPBBBBBBBBBBPPPP switches=[2,12]");
}

TEST(HybridGolden, WccScatteredSwitchSequence) {
  EXPECT_EQ(ModeTrace(GeneratePowerLaw(2000, 12.0, 1.0, 5, /*locality=*/0.5),
                      WccProgram{}, HybridConfig(150, 60)),
            "BBBBBBBBPP switches=[8]");
}

TEST(HybridGolden, WccLocalSwitchSequence) {
  EXPECT_EQ(ModeTrace(LocalGraph(), WccProgram{}, HybridConfig(150, 60)),
            "BBBBBBBBBP switches=[9]");
}

TEST(Hybrid, SwitchSuperstepDoesBothPullAndPush) {
  // Find a b-pull -> push switch and verify the spike: that superstep pulls
  // (eblock/vrr I/O) AND pushes (adjacency I/O + outgoing message batches).
  const auto g = GeneratePowerLaw(2000, 12.0, 0.9, 5, /*locality=*/0.7);
  SsspProgram program;
  program.source = 1;
  JobConfig cfg;
  cfg.mode = EngineMode::kHybrid;
  cfg.num_nodes = 4;
  cfg.msg_buffer_per_node = 100;
  cfg.force_initial_mode = true;
  cfg.initial_mode = EngineMode::kBPull;
  cfg.max_supersteps = 120;
  Engine<SsspProgram> engine(cfg, program);
  ASSERT_TRUE(engine.Load(g).ok());
  ASSERT_TRUE(engine.Run().ok());
  const auto& steps = engine.stats().supersteps;
  bool found = false;
  for (size_t i = 1; i < steps.size(); ++i) {
    if (steps[i].mode == EngineMode::kPush &&
        steps[i - 1].mode == EngineMode::kBPull) {
      EXPECT_TRUE(steps[i].switched);
      // Consumption side pulled, production side pushed.
      EXPECT_GT(steps[i].io.eblock_edge_bytes + steps[i].io.vrr_bytes, 0u);
      EXPECT_GT(steps[i].io.adj_edge_bytes, 0u);
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "no b-pull -> push switch observed";
}

}  // namespace
}  // namespace hybridgraph
