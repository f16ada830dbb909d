// Randomized differential testing: seeded random graphs x every engine mode
// x {PageRank, SSSP, WCC, LPA}, each checked against the single-threaded
// reference implementations, plus fault-injected replays that must stay
// bit-identical to their fault-free runs. Every case derives entirely from
// one case seed — a failure message names the seed, which reproduces the
// exact graph, configuration and fail-point schedule.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>

#include "graph/generator.h"
#include "hybridgraph/any_engine.h"
#include "tests/core/reference_impls.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace hybridgraph {
namespace {

constexpr EngineMode kAllModes[] = {
    EngineMode::kPush,   EngineMode::kPushM,    EngineMode::kVPull,
    EngineMode::kBPull,  EngineMode::kHybrid,   EngineMode::kAdaptive,
    EngineMode::kGraphHp};
constexpr AlgoKind kFuzzAlgos[] = {AlgoKind::kPageRank, AlgoKind::kSssp,
                                   AlgoKind::kWcc, AlgoKind::kLpa};

struct FuzzCase {
  EdgeListGraph graph;
  JobConfig config;
  AlgoSpec spec;
  int lpa_supersteps = 0;
};

/// Derives a full case — graph shape, cluster shape, buffers, mode, algorithm
/// and sources — from nothing but the case seed.
FuzzCase MakeCase(uint64_t case_seed) {
  Rng rng(case_seed);
  FuzzCase c;
  const uint64_t n = 40 + rng.NextBounded(140);  // 40..179 vertices
  const double avg_degree = 3.0 + static_cast<double>(rng.NextBounded(5));
  const double skew = 0.6 + 0.1 * static_cast<double>(rng.NextBounded(4));
  c.graph = GeneratePowerLaw(n, avg_degree, skew, rng.Next());

  c.config.num_nodes = 1 + static_cast<uint32_t>(rng.NextBounded(4));
  c.config.num_threads = rng.NextBool(0.3) ? 4 : 1;
  switch (rng.NextBounded(3)) {
    case 0: c.config.msg_buffer_per_node = 16 + rng.NextBounded(64); break;
    case 1: c.config.msg_buffer_per_node = 256; break;
    default: break;  // keep "sufficient memory"
  }
  c.config.vblocks_per_node = static_cast<uint32_t>(rng.NextBounded(4));  // 0=auto
  c.config.vpull_vertex_cache = rng.NextBool(0.5) ? 32 : UINT64_MAX;
  c.config.pre_pull = rng.NextBool(0.5);
  c.config.bpull_combining = rng.NextBool(0.8);
  c.config.push_sender_combining = rng.NextBool(0.2);
  c.config.mode = kAllModes[rng.NextBounded(std::size(kAllModes))];
  c.config.seed = rng.Next();

  c.spec.kind = kFuzzAlgos[rng.NextBounded(4)];
  switch (c.spec.kind) {
    case AlgoKind::kPageRank:
      c.config.max_supersteps = 3 + static_cast<int>(rng.NextBounded(4));
      break;
    case AlgoKind::kSssp:
      c.config.max_supersteps = 4 * static_cast<int>(n);  // run to convergence
      c.spec.source = static_cast<VertexId>(rng.NextBounded(n));
      c.spec.source_set = true;
      break;
    case AlgoKind::kWcc:
      c.config.max_supersteps = 4 * static_cast<int>(n);  // run to convergence
      break;
    case AlgoKind::kLpa:
    default:
      c.lpa_supersteps = 3 + static_cast<int>(rng.NextBounded(4));
      c.config.max_supersteps = c.lpa_supersteps;
      break;
  }
  return c;
}

bool IsInvalidCombo(const FuzzCase& c) {
  // pushM requires combinable messages; LPA is concatenation-only.
  return c.config.mode == EngineMode::kPushM && c.spec.kind == AlgoKind::kLpa;
}

std::string CaseLabel(uint64_t case_seed, const FuzzCase& c) {
  return StringFormat("case_seed=%llu algo=%s mode=%s n=%llu nodes=%u",
                      static_cast<unsigned long long>(case_seed),
                      AlgoKindName(c.spec.kind), EngineModeName(c.config.mode),
                      static_cast<unsigned long long>(c.graph.num_vertices),
                      c.config.num_nodes);
}

std::vector<double> RunEngine(const FuzzCase& c) {
  auto engine = MakeEngine(c.config, c.spec).ValueOrDie();
  EXPECT_TRUE(engine->Load(c.graph).ok());
  EXPECT_TRUE(engine->Run().ok());
  return engine->GatherValuesAsDouble().ValueOrDie();
}

void CheckAgainstReference(const FuzzCase& c, const std::vector<double>& got) {
  ASSERT_EQ(got.size(), c.graph.num_vertices);
  switch (c.spec.kind) {
    case AlgoKind::kPageRank: {
      const auto expected =
          ReferencePageRank(c.graph, c.config.max_supersteps);
      for (size_t v = 0; v < got.size(); ++v) {
        ASSERT_NEAR(got[v], expected[v], 1e-12) << "v=" << v;
      }
      break;
    }
    case AlgoKind::kSssp: {
      const auto expected = ReferenceSssp(c.graph, c.spec.source);
      for (size_t v = 0; v < got.size(); ++v) {
        ASSERT_FLOAT_EQ(static_cast<float>(got[v]), expected[v]) << "v=" << v;
      }
      break;
    }
    case AlgoKind::kWcc: {
      const auto expected = ReferenceMinLabel(c.graph);
      for (size_t v = 0; v < got.size(); ++v) {
        ASSERT_EQ(static_cast<uint32_t>(got[v]), expected[v]) << "v=" << v;
      }
      break;
    }
    case AlgoKind::kLpa:
    default: {
      const auto expected = ReferenceLpa(c.graph, c.lpa_supersteps);
      for (size_t v = 0; v < got.size(); ++v) {
        ASSERT_EQ(static_cast<uint32_t>(got[v]), expected[v]) << "v=" << v;
      }
      break;
    }
  }
}

TEST(DifferentialFuzz, SeededCasesMatchReferenceImplementations) {
  int executed = 0;
  for (uint64_t case_seed = 9000; case_seed < 9240; ++case_seed) {
    const FuzzCase c = MakeCase(case_seed);
    if (IsInvalidCombo(c)) continue;
    SCOPED_TRACE(CaseLabel(case_seed, c));
    const auto got = RunEngine(c);
    if (::testing::Test::HasFatalFailure()) return;
    CheckAgainstReference(c, got);
    if (::testing::Test::HasFatalFailure()) return;
    ++executed;
  }
  EXPECT_GE(executed, 220);  // the pushM+LPA skip must not hollow out the sweep
}


TEST(DifferentialFuzz, PageRankDeltaAggregatorHaltAcrossAllModes) {
  // The aggregator-halting program across every mode, including adaptive,
  // graphhp and the GAS v-pull baseline. V-pull has no aggregator (supports_aggregator()
  // is false), so it never halts early and must match the no-halt reference
  // at the superstep cap; every block-centric mode must halt at the same
  // superstep as the halting reference. Fresh seed space: MakeCase's Rng
  // consumption (seeds 9000..9240, 41000..41060) is load-bearing.
  int executed = 0;
  for (uint64_t case_seed = 9300; case_seed < 9330; ++case_seed) {
    Rng rng(case_seed);
    const uint64_t n = 40 + rng.NextBounded(140);
    const double avg_degree = 3.0 + static_cast<double>(rng.NextBounded(5));
    const EdgeListGraph graph =
        GeneratePowerLaw(n, avg_degree, 0.7, rng.Next());

    JobConfig base;
    base.num_nodes = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    base.num_threads = rng.NextBool(0.3) ? 4 : 1;
    base.msg_buffer_per_node =
        rng.NextBool(0.5) ? 64 + rng.NextBounded(64) : UINT64_MAX;
    base.max_supersteps = 20 + static_cast<int>(rng.NextBounded(30));
    base.seed = rng.Next();

    AlgoSpec spec;
    spec.kind = AlgoKind::kPageRankDelta;
    // The program defaults: damping 0.85, tolerance 1e-4.
    const auto halting =
        ReferencePageRankDelta(graph, base.max_supersteps, 1e-4, true);
    const auto capped =
        ReferencePageRankDelta(graph, base.max_supersteps, 1e-4, false);

    for (EngineMode mode : kAllModes) {
      JobConfig cfg = base;
      cfg.mode = mode;
      SCOPED_TRACE(StringFormat(
          "case_seed=%llu mode=%s n=%llu nodes=%u supersteps=%d",
          static_cast<unsigned long long>(case_seed), EngineModeName(mode),
          static_cast<unsigned long long>(n), cfg.num_nodes,
          cfg.max_supersteps));
      auto engine = MakeEngine(cfg, spec).ValueOrDie();
      ASSERT_TRUE(engine->Load(graph).ok());
      ASSERT_TRUE(engine->Run().ok());
      const auto got = engine->GatherValuesAsDouble().ValueOrDie();
      if (::testing::Test::HasFatalFailure()) return;
      const auto& expected = mode == EngineMode::kVPull ? capped : halting;
      ASSERT_EQ(got.size(), expected.size());
      for (size_t v = 0; v < got.size(); ++v) {
        ASSERT_NEAR(got[v], expected[v], 1e-12) << "v=" << v;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    ++executed;
  }
  EXPECT_EQ(executed, 30);
}

TEST(DifferentialFuzz, FaultInjectedReplaysStayBitIdentical) {
  // Result-preserving fail-point schedules (randomized delay sites, seeded
  // from the case) must leave raw gathered values byte-identical to the
  // fault-free run of the same case.
  int executed = 0;
  for (uint64_t case_seed = 41000; case_seed < 41060; ++case_seed) {
    FuzzCase c = MakeCase(case_seed);
    if (IsInvalidCombo(c)) continue;
    // Convergence-length runs make 60 fault replays slow; cap the traversal
    // algorithms' superstep budget (both runs use the same cap, so the
    // differential comparison is unaffected).
    if (c.config.max_supersteps > 40) c.config.max_supersteps = 40;
    SCOPED_TRACE(CaseLabel(case_seed, c));

    auto run_raw = [&c]() {
      auto engine = MakeEngine(c.config, c.spec).ValueOrDie();
      EXPECT_TRUE(engine->Load(c.graph).ok());
      EXPECT_TRUE(engine->Run().ok());
      return engine->GatherValuesRaw().ValueOrDie();
    };
    const std::vector<uint8_t> expected = run_raw();
    if (::testing::Test::HasFatalFailure()) return;

    Rng rng(case_seed ^ 0xFA017FA017ULL);
    std::string schedule;
    for (const char* site : {"storage.read", "storage.write", "spill.flush"}) {
      if (rng.NextBool(0.6)) {
        if (!schedule.empty()) schedule += ";";
        schedule += StringFormat(
            "%s=delay:p=0.%llu,seed=%llu,us=1", site,
            static_cast<unsigned long long>(1 + rng.NextBounded(9)),
            static_cast<unsigned long long>(rng.Next()));
      }
    }
    if (schedule.empty()) schedule = "storage.read=delay:p=0.5,us=1";
    c.config.failpoints = schedule;
    const std::vector<uint8_t> got = run_raw();
    FailPointRegistry::Instance().DisarmAll();
    if (::testing::Test::HasFatalFailure()) return;

    ASSERT_EQ(got.size(), expected.size()) << "schedule=" << schedule;
    ASSERT_EQ(std::memcmp(got.data(), expected.data(), got.size()), 0)
        << "schedule=" << schedule;
    ++executed;
  }
  EXPECT_GE(executed, 50);
}

}  // namespace
}  // namespace hybridgraph
