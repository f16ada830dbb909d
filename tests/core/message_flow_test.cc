// Message-flow mechanics: sending-threshold flow control, sender-side
// combining (pushM+com), spill accounting M_disk = M - B, concatenation
// savings in b-pull, and cost-model comparisons the paper's conclusions
// rest on.
#include <gtest/gtest.h>

#include "algos/lpa.h"
#include "algos/pagerank.h"
#include "core/engine.h"
#include "graph/generator.h"

namespace hybridgraph {
namespace {

EdgeListGraph TestGraph() { return GeneratePowerLaw(1000, 10.0, 0.8, 31); }

JobConfig Base(EngineMode mode) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 4;
  cfg.msg_buffer_per_node = 300;
  cfg.max_supersteps = 4;
  return cfg;
}

TEST(MessageFlow, SpilledEqualsMessagesMinusBuffer) {
  const auto g = TestGraph();
  JobConfig cfg = Base(EngineMode::kPush);
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  ASSERT_TRUE(engine.Load(g).ok());
  ASSERT_TRUE(engine.Run().ok());
  // Steady-state superstep: every edge produces one message; each node
  // buffers at most B_i of the messages it receives.
  const auto& s = engine.stats().supersteps[2];
  EXPECT_EQ(s.messages_produced, g.num_edges());
  const uint64_t b_total = cfg.msg_buffer_per_node * cfg.num_nodes;
  EXPECT_GE(s.messages_spilled, s.messages_produced - b_total - 1);
  EXPECT_LT(s.messages_spilled, s.messages_produced);
}

TEST(MessageFlow, SmallerThresholdMoreFrames) {
  const auto g = TestGraph();
  auto frames = [&](uint64_t threshold) {
    JobConfig cfg = Base(EngineMode::kPush);
    cfg.sending_threshold_bytes = threshold;
    Engine<PageRankProgram> engine(cfg, PageRankProgram{});
    EXPECT_TRUE(engine.Load(g).ok());
    EXPECT_TRUE(engine.Run().ok());
    uint64_t total = 0;
    for (const auto& s : engine.stats().supersteps) total += s.net_frames;
    return total;
  };
  EXPECT_GT(frames(512), 2 * frames(64 * 1024));
}

TEST(MessageFlow, SenderCombiningReducesWireMessages) {
  const auto g = TestGraph();
  auto run = [&](bool combine) {
    JobConfig cfg = Base(EngineMode::kPush);
    cfg.push_sender_combining = combine;
    cfg.sending_threshold_bytes = 1 << 20;  // large buffer: maximal combining
    Engine<PageRankProgram> engine(cfg, PageRankProgram{});
    EXPECT_TRUE(engine.Load(g).ok());
    EXPECT_TRUE(engine.Run().ok());
    return engine.stats();
  };
  const JobStats plain = run(false);
  const JobStats combined = run(true);
  EXPECT_GT(plain.TotalNetBytes(), combined.TotalNetBytes());
  uint64_t mco = 0;
  for (const auto& s : combined.supersteps) mco += s.messages_combined;
  EXPECT_GT(mco, 0u);
  // Combining must not change the result counts.
  EXPECT_EQ(plain.supersteps[2].messages_produced,
            combined.supersteps[2].messages_produced);
}

TEST(MessageFlow, CombiningGainGrowsWithThreshold) {
  // Appendix E: a larger sending threshold lets more messages meet in the
  // buffer and combine.
  const auto g = TestGraph();
  auto ratio = [&](uint64_t threshold) {
    JobConfig cfg = Base(EngineMode::kPush);
    cfg.push_sender_combining = true;
    cfg.sending_threshold_bytes = threshold;
    Engine<PageRankProgram> engine(cfg, PageRankProgram{});
    EXPECT_TRUE(engine.Load(g).ok());
    EXPECT_TRUE(engine.Run().ok());
    uint64_t mco = 0, m = 0;
    for (const auto& s : engine.stats().supersteps) {
      mco += s.messages_combined;
      m += s.messages_produced;
    }
    return static_cast<double>(mco) / static_cast<double>(m);
  };
  EXPECT_GT(ratio(256 * 1024), ratio(256) + 0.05);
}

TEST(MessageFlow, BPullCombinesRegardlessOfThreshold) {
  // b-pull generates messages per requested block, so its combining ratio is
  // orthogonal to the sending threshold (Appendix E, Fig 26b).
  const auto g = TestGraph();
  auto ratio = [&](uint64_t threshold) {
    JobConfig cfg = Base(EngineMode::kBPull);
    cfg.sending_threshold_bytes = threshold;
    Engine<PageRankProgram> engine(cfg, PageRankProgram{});
    EXPECT_TRUE(engine.Load(g).ok());
    EXPECT_TRUE(engine.Run().ok());
    uint64_t mco = 0, m = 0;
    for (const auto& s : engine.stats().supersteps) {
      mco += s.messages_combined;
      m += s.messages_produced;
    }
    return m ? static_cast<double>(mco) / static_cast<double>(m) : 0.0;
  };
  const double small = ratio(256);
  const double large = ratio(256 * 1024);
  EXPECT_NEAR(small, large, 0.01);
  EXPECT_GT(small, 0.1);
}

TEST(MessageFlow, BPullNetBytesBelowPush) {
  // Concatenating/combining on the wire: b-pull must move fewer bytes than
  // push for the same algorithm (Sec 6.5 reports ~50% even without combine).
  // Use a locality-free graph so destination in-degrees concentrate per
  // sender node and grouping has something to merge.
  const auto g = GeneratePowerLaw(1000, 10.0, 0.9, 31, /*locality=*/0.0);
  auto net = [&](EngineMode mode) {
    JobConfig cfg = Base(mode);
    Engine<PageRankProgram> engine(cfg, PageRankProgram{});
    EXPECT_TRUE(engine.Load(g).ok());
    EXPECT_TRUE(engine.Run().ok());
    uint64_t bytes = 0;
    // Compare steady-state supersteps (skip the asymmetric first ones).
    for (const auto& s : engine.stats().supersteps) {
      if (s.superstep >= 2) bytes += s.net_bytes;
    }
    return bytes;
  };
  EXPECT_LT(net(EngineMode::kBPull), net(EngineMode::kPush) * 3 / 4);
}

TEST(MessageFlow, ConcatOnlyAlgorithmStillSavesIds) {
  // LPA cannot combine, but concatenation still shares destination ids.
  const auto g = TestGraph();
  auto net = [&](EngineMode mode) {
    JobConfig cfg = Base(mode);
    cfg.max_supersteps = 3;
    Engine<LpaProgram> engine(cfg, LpaProgram{});
    EXPECT_TRUE(engine.Load(g).ok());
    EXPECT_TRUE(engine.Run().ok());
    uint64_t bytes = 0;
    for (const auto& s : engine.stats().supersteps) {
      if (s.superstep >= 2) bytes += s.net_bytes;
    }
    return bytes;
  };
  EXPECT_LT(net(EngineMode::kBPull), net(EngineMode::kPush));
}

TEST(CostModel, PushCostGrowsAsBufferShrinks) {
  // The Fig 2 motivation: runtime rises as the message buffer shrinks.
  const auto g = TestGraph();
  auto modeled = [&](uint64_t buffer) {
    JobConfig cfg = Base(EngineMode::kPush);
    cfg.msg_buffer_per_node = buffer;
    Engine<PageRankProgram> engine(cfg, PageRankProgram{});
    EXPECT_TRUE(engine.Load(g).ok());
    EXPECT_TRUE(engine.Run().ok());
    return engine.stats().modeled_seconds;
  };
  const double tiny = modeled(50);
  const double mid = modeled(1000);
  const double mem = modeled(UINT64_MAX);
  EXPECT_GT(tiny, mid);
  EXPECT_GT(mid, mem);
}

TEST(CostModel, BPullBeatsPushUnderLimitedMemory) {
  // The headline claim, at test scale.
  const auto g = TestGraph();
  auto modeled = [&](EngineMode mode) {
    JobConfig cfg = Base(mode);
    cfg.msg_buffer_per_node = 100;
    Engine<PageRankProgram> engine(cfg, PageRankProgram{});
    EXPECT_TRUE(engine.Load(g).ok());
    EXPECT_TRUE(engine.Run().ok());
    return engine.stats().modeled_seconds;
  };
  EXPECT_LT(3 * modeled(EngineMode::kBPull), modeled(EngineMode::kPush));
}

TEST(CostModel, SsdNarrowsTheGap) {
  const auto g = TestGraph();
  auto modeled = [&](EngineMode mode, DiskProfile disk) {
    JobConfig cfg = Base(mode);
    cfg.msg_buffer_per_node = 100;
    cfg.disk = disk;
    Engine<PageRankProgram> engine(cfg, PageRankProgram{});
    EXPECT_TRUE(engine.Load(g).ok());
    EXPECT_TRUE(engine.Run().ok());
    return engine.stats().modeled_seconds;
  };
  const double hdd_gap = modeled(EngineMode::kPush, DiskProfile::Hdd()) /
                         modeled(EngineMode::kBPull, DiskProfile::Hdd());
  const double ssd_gap = modeled(EngineMode::kPush, DiskProfile::Ssd()) /
                         modeled(EngineMode::kBPull, DiskProfile::Ssd());
  EXPECT_GT(hdd_gap, ssd_gap);
  EXPECT_GT(ssd_gap, 1.0);  // b-pull still wins on SSD (Fig 9)
}

}  // namespace
}  // namespace hybridgraph
