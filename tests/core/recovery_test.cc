// Checkpoint / restore and fault-tolerant recovery.
#include <gtest/gtest.h>

#include <cmath>

#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "core/recovery.h"
#include "graph/generator.h"
#include "util/codec.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace hybridgraph {
namespace {

EdgeListGraph TestGraph(uint64_t seed = 4) {
  return GeneratePowerLaw(600, 8.0, 0.8, seed);
}

JobConfig Base(EngineMode mode) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 4;
  cfg.msg_buffer_per_node = 150;  // exercises the spilled-inbox path too
  cfg.max_supersteps = 8;
  return cfg;
}

template <typename P>
std::vector<typename P::Value> FaultFreeRun(P program, JobConfig cfg,
                                            const EdgeListGraph& g) {
  Engine<P> engine(cfg, program);
  EXPECT_TRUE(engine.Load(g).ok());
  EXPECT_TRUE(engine.Run().ok());
  return engine.GatherValues().ValueOrDie();
}

TEST(Checkpoint, MidRunRoundTripResumesIdentically) {
  // pushM carries undelivered messages in its online accumulators as well as
  // in the inbox; the image must hold both.
  const auto g = TestGraph();
  for (const EngineMode mode : {EngineMode::kPush, EngineMode::kPushM}) {
    const JobConfig cfg = Base(mode);
    const auto expected = FaultFreeRun(PageRankProgram{}, cfg, g);

    // Run 3 supersteps, checkpoint, resume in a brand-new engine.
    Engine<PageRankProgram> first(cfg, PageRankProgram{});
    ASSERT_TRUE(first.Load(g).ok());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(first.RunSuperstep().ok());
    Buffer image;
    ASSERT_TRUE(first.WriteCheckpoint(&image).ok());

    Engine<PageRankProgram> second(cfg, PageRankProgram{});
    ASSERT_TRUE(second.Load(g).ok());
    ASSERT_TRUE(second.RestoreCheckpoint(image.AsSlice()).ok());
    EXPECT_EQ(second.superstep(), 3);
    ASSERT_TRUE(second.Run().ok());
    const auto got = second.GatherValues().ValueOrDie();
    ASSERT_EQ(got.size(), expected.size());
    // Written as !(d <= tol) so a NaN or inf value counts as differing.
    size_t differing = 0;
    for (size_t v = 0; v < got.size(); ++v) {
      if (!(std::abs(got[v] - expected[v]) <= 1e-12)) ++differing;
    }
    EXPECT_EQ(differing, 0u) << EngineModeName(mode);
  }
}

TEST(Checkpoint, CorruptImageRejected) {
  const auto g = TestGraph();
  const JobConfig cfg = Base(EngineMode::kPush);
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  ASSERT_TRUE(engine.Load(g).ok());
  ASSERT_TRUE(engine.RunSuperstep().ok());
  Buffer image;
  ASSERT_TRUE(engine.WriteCheckpoint(&image).ok());

  Engine<PageRankProgram> fresh(cfg, PageRankProgram{});
  ASSERT_TRUE(fresh.Load(g).ok());
  // Bad magic.
  std::vector<uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(fresh.RestoreCheckpoint(Slice(junk)).code(),
            StatusCode::kCorruption);
  // Truncated image.
  EXPECT_FALSE(
      fresh.RestoreCheckpoint(Slice(image.data(), image.size() / 2)).ok());
  // Restore before Load is a precondition failure.
  Engine<PageRankProgram> unloaded(cfg, PageRankProgram{});
  EXPECT_EQ(unloaded.RestoreCheckpoint(image.AsSlice()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(Checkpoint, ImageOfAnUninstalledPathRejected) {
  // A hybrid image taken after a b-pull superstep names the b-pull path,
  // which a push engine does not install: the restore must fail and leave
  // the engine runnable instead of arming an empty registry slot.
  const auto g = TestGraph();
  JobConfig hybrid = Base(EngineMode::kHybrid);
  hybrid.force_initial_mode = true;
  hybrid.initial_mode = EngineMode::kBPull;
  Engine<PageRankProgram> engine(hybrid, PageRankProgram{});
  ASSERT_TRUE(engine.Load(g).ok());
  ASSERT_TRUE(engine.RunSuperstep().ok());
  ASSERT_EQ(engine.stats().supersteps.back().mode, EngineMode::kBPull);
  Buffer image;
  ASSERT_TRUE(engine.WriteCheckpoint(&image).ok());

  Engine<PageRankProgram> push(Base(EngineMode::kPush), PageRankProgram{});
  ASSERT_TRUE(push.Load(g).ok());
  EXPECT_EQ(push.RestoreCheckpoint(image.AsSlice()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(push.superstep(), 0);
  EXPECT_TRUE(push.RunSuperstep().ok());
}

TEST(Checkpoint, OutOfRangeModeByteRejected) {
  // An image with a valid checksum whose mode byte names no EngineMode is
  // rejected before it indexes the path registry.
  const auto g = TestGraph();
  const JobConfig cfg = Base(EngineMode::kPush);
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  ASSERT_TRUE(engine.Load(g).ok());
  ASSERT_TRUE(engine.RunSuperstep().ok());
  Buffer image;
  ASSERT_TRUE(engine.WriteCheckpoint(&image).ok());

  // Header: fixed32 magic, fixed32 version, varint superstep (one byte at
  // superstep 1), then the mode byte; the FNV-1a trailer is recomputed.
  constexpr size_t kModeOffset = 9;
  std::vector<uint8_t> body(image.data(), image.data() + image.size() - 8);
  ASSERT_EQ(body[kModeOffset], static_cast<uint8_t>(EngineMode::kPush));
  body[kModeOffset] = 0xFF;
  Buffer forged;
  forged.Append(body.data(), body.size());
  Encoder(&forged).PutFixed64(Fnv1a64(body.data(), body.size()));

  Engine<PageRankProgram> fresh(cfg, PageRankProgram{});
  ASSERT_TRUE(fresh.Load(g).ok());
  EXPECT_EQ(fresh.RestoreCheckpoint(forged.AsSlice()).code(),
            StatusCode::kInvalidArgument);
}

class RecoveryModeTest : public ::testing::TestWithParam<EngineMode> {};

TEST_P(RecoveryModeTest, CrashWithCheckpointMatchesFaultFree) {
  const auto g = TestGraph();
  JobConfig cfg = Base(GetParam());
  SsspProgram program;
  program.source = 7;
  cfg.max_supersteps = 60;
  const auto expected = FaultFreeRun(program, cfg, g);

  CheckpointingRunner<SsspProgram> runner(cfg, program, /*checkpoint_every=*/2);
  ASSERT_TRUE(runner.Run(g, /*crash_after=*/{5, 9}).ok());
  EXPECT_EQ(runner.recoveries(), 2);
  EXPECT_GT(runner.checkpoints_written(), 2);
  EXPECT_TRUE(runner.converged());
  const auto got = runner.GatherValues().ValueOrDie();
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_FLOAT_EQ(got[v], expected[v]) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, RecoveryModeTest,
                         ::testing::Values(EngineMode::kPush,
                                           EngineMode::kBPull,
                                           EngineMode::kHybrid));

TEST(Recovery, RecomputeFromScratchWhenNoCheckpoints) {
  // The paper's baseline policy: no checkpoints, recovery restarts the job.
  const auto g = TestGraph();
  JobConfig cfg = Base(EngineMode::kBPull);
  const auto expected = FaultFreeRun(PageRankProgram{}, cfg, g);

  CheckpointingRunner<PageRankProgram> runner(cfg, PageRankProgram{},
                                              /*checkpoint_every=*/0);
  ASSERT_TRUE(runner.Run(g, /*crash_after=*/{4}).ok());
  EXPECT_EQ(runner.recoveries(), 1);
  EXPECT_EQ(runner.checkpoints_written(), 0);
  // 5 supersteps before the crash were wasted, then the full 8 again.
  EXPECT_EQ(runner.supersteps_executed(), 5 + cfg.max_supersteps);
  const auto got = runner.GatherValues().ValueOrDie();
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-12) << v;
  }
}

TEST(Recovery, CheckpointingRecomputesFewerSupersteps) {
  const auto g = TestGraph();
  JobConfig cfg = Base(EngineMode::kPush);
  CheckpointingRunner<PageRankProgram> scratch(cfg, PageRankProgram{}, 0);
  ASSERT_TRUE(scratch.Run(g, {6}).ok());
  CheckpointingRunner<PageRankProgram> ckpt(cfg, PageRankProgram{}, 2);
  ASSERT_TRUE(ckpt.Run(g, {6}).ok());
  EXPECT_LT(ckpt.supersteps_executed(), scratch.supersteps_executed());
}

TEST(Checkpoint, EveryTruncationAndBitFlipIsRejectedOrRestores) {
  // The image carries a whole-image checksum trailer: any truncation must be
  // rejected as Corruption, and any single-bit flip must either be rejected
  // or (for flips inside the unused tail of a varint, which cannot exist
  // here) restore successfully — it must never crash the engine.
  const auto g = GeneratePowerLaw(120, 5.0, 0.8, 6);
  JobConfig cfg = Base(EngineMode::kPush);
  cfg.num_nodes = 2;
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  ASSERT_TRUE(engine.Load(g).ok());
  ASSERT_TRUE(engine.RunSuperstep().ok());
  Buffer image;
  ASSERT_TRUE(engine.WriteCheckpoint(&image).ok());

  Engine<PageRankProgram> fresh(cfg, PageRankProgram{});
  ASSERT_TRUE(fresh.Load(g).ok());
  for (size_t cut = 0; cut < image.size(); ++cut) {
    Status st = fresh.RestoreCheckpoint(Slice(image.data(), cut));
    ASSERT_FALSE(st.ok()) << "cut=" << cut;
    ASSERT_EQ(st.code(), StatusCode::kCorruption) << "cut=" << cut;
  }
  std::vector<uint8_t> bytes(image.data(), image.data() + image.size());
  Rng rng(99);
  for (int flip = 0; flip < 256; ++flip) {
    std::vector<uint8_t> mutated = bytes;
    mutated[rng.NextBounded(mutated.size())] ^=
        static_cast<uint8_t>(1u << rng.NextBounded(8));
    Engine<PageRankProgram> victim(cfg, PageRankProgram{});
    ASSERT_TRUE(victim.Load(g).ok());
    Status st = victim.RestoreCheckpoint(Slice(mutated));
    ASSERT_FALSE(st.ok()) << "flip round " << flip;
    ASSERT_EQ(st.code(), StatusCode::kCorruption) << "flip round " << flip;
  }
}

TEST(Recovery, TornCheckpointWriteFallsBackToPreviousImage) {
  // Crash mid-WriteCheckpoint (the "ckpt.write" site fires partway through
  // the per-node loop): the torn partial image lands in reliable storage as
  // the newest checkpoint. Recovery must detect it via the checksum trailer,
  // fall back to the previous intact checkpoint, and still finish with
  // fault-free results.
  const auto g = TestGraph();
  JobConfig cfg = Base(EngineMode::kPush);
  const auto expected = FaultFreeRun(PageRankProgram{}, cfg, g);

  // ckpt.write is hit once per node per checkpoint; with 4 nodes the 6th hit
  // lands mid-way through the second checkpoint (supersteps 2 and 4).
  FailPointScope scope("ckpt.write=crash:after=5,max=1");
  ASSERT_TRUE(scope.status().ok());
  CheckpointingRunner<PageRankProgram> runner(cfg, PageRankProgram{},
                                              /*checkpoint_every=*/2);
  ASSERT_TRUE(runner.Run(g).ok());
  EXPECT_EQ(runner.torn_checkpoints(), 1);
  EXPECT_EQ(runner.checkpoint_fallbacks(), 1);
  EXPECT_EQ(runner.recoveries(), 1);
  const auto got = runner.GatherValues().ValueOrDie();
  ASSERT_EQ(got.size(), expected.size());
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-12) << v;
  }
  FailPointRegistry::Instance().DisarmAll();
}

TEST(Recovery, TornFirstCheckpointFallsBackToScratch) {
  // When the very first checkpoint write is torn there is no older image:
  // the fallback chain ends at recomputing from scratch.
  const auto g = TestGraph();
  JobConfig cfg = Base(EngineMode::kBPull);
  const auto expected = FaultFreeRun(PageRankProgram{}, cfg, g);

  FailPointScope scope("ckpt.write=crash:after=1,max=1");
  ASSERT_TRUE(scope.status().ok());
  CheckpointingRunner<PageRankProgram> runner(cfg, PageRankProgram{},
                                              /*checkpoint_every=*/2);
  ASSERT_TRUE(runner.Run(g).ok());
  EXPECT_EQ(runner.torn_checkpoints(), 1);
  EXPECT_GE(runner.checkpoint_fallbacks(), 1);
  // The job still pays full re-execution: everything up to the torn write
  // plus the complete run again.
  EXPECT_GT(runner.supersteps_executed(), cfg.max_supersteps);
  const auto got = runner.GatherValues().ValueOrDie();
  ASSERT_EQ(got.size(), expected.size());
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-12) << v;
  }
  FailPointRegistry::Instance().DisarmAll();
}

TEST(Recovery, UnboundedCrashLoopHitsRecoveryLimit) {
  // A crash fail-point that fires on every superstep re-execution can never
  // make progress; the runner must give up with a crash-loop error instead
  // of spinning forever.
  const auto g = TestGraph();
  JobConfig cfg = Base(EngineMode::kPush);
  FailPointScope scope("ckpt.write=crash");  // unlimited fires
  ASSERT_TRUE(scope.status().ok());
  CheckpointingRunner<PageRankProgram> runner(cfg, PageRankProgram{},
                                              /*checkpoint_every=*/1);
  Status st = runner.Run(g);
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("crash loop"), std::string::npos) << st.message();
  FailPointRegistry::Instance().DisarmAll();
}

TEST(Recovery, BarrierContractScriptedCrashNeverTearsCheckpoints) {
  // The crash_after contract: scripted crashes fire only at the superstep
  // barrier, after the checkpoint write completes — so every image stays
  // intact no matter how the crash schedule lines up with checkpoints.
  const auto g = TestGraph();
  JobConfig cfg = Base(EngineMode::kPush);
  CheckpointingRunner<PageRankProgram> runner(cfg, PageRankProgram{},
                                              /*checkpoint_every=*/1);
  ASSERT_TRUE(runner.Run(g, /*crash_after=*/{1, 3, 5}).ok());
  EXPECT_EQ(runner.recoveries(), 3);
  EXPECT_EQ(runner.torn_checkpoints(), 0);
  EXPECT_EQ(runner.checkpoint_fallbacks(), 0);
}

}  // namespace
}  // namespace hybridgraph
