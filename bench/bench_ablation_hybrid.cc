// Ablation — hybrid's switching machinery: fixed modes vs hybrid, the
// switching interval Δt, and the Theorem-2 initial-mode rule, on the
// traversal workload where switching matters (SSSP over twi).
#include <cstdio>

#include "bench_common.h"

using namespace hybridgraph;
using namespace hybridgraph::bench;

namespace {

void Report(const char* label, const Result<JobStats>& stats) {
  if (!stats.ok()) {
    std::printf("%-32s FAILED: %s\n", label,
                stats.status().ToString().c_str());
    return;
  }
  int switches = 0;
  for (const auto& s : stats->supersteps) switches += s.switched ? 1 : 0;
  std::printf("%-32s %12.4f %12s %10d %8d\n", label, stats->modeled_seconds,
              HumanBytes(stats->TotalIoBytes()).c_str(), switches,
              stats->supersteps_run);
}

}  // namespace

int main() {
  PrintHeader("bench_ablation_hybrid",
              "ablation: hybrid switching machinery (SSSP over twi, limited "
              "memory)");
  const DatasetSpec spec = FindDataset("twi").ValueOrDie();
  const double shrink = ShrinkFor(spec);
  const EdgeListGraph& graph = CachedGraph(spec, shrink);

  std::printf("%-32s %12s %12s %10s %8s\n", "variant", "runtime(s)", "io",
              "switches", "steps");

  {
    JobConfig cfg = LimitedMemoryConfig(spec, shrink);
    Report("pure push",
           RunAlgo(graph, AlgoKind::kSssp, EngineMode::kPush, cfg));
  }
  {
    JobConfig cfg = LimitedMemoryConfig(spec, shrink);
    Report("pure b-pull",
           RunAlgo(graph, AlgoKind::kSssp, EngineMode::kBPull, cfg));
  }
  for (int dt : {1, 2, 4, 8}) {
    JobConfig cfg = LimitedMemoryConfig(spec, shrink);
    cfg.switch_interval = dt;
    char label[64];
    std::snprintf(label, sizeof(label), "hybrid (dt=%d)", dt);
    Report(label, RunAlgo(graph, AlgoKind::kSssp, EngineMode::kHybrid, cfg));
  }
  for (EngineMode initial : {EngineMode::kPush, EngineMode::kBPull}) {
    JobConfig cfg = LimitedMemoryConfig(spec, shrink);
    cfg.force_initial_mode = true;
    cfg.initial_mode = initial;
    char label[64];
    std::snprintf(label, sizeof(label), "hybrid (forced start=%s)",
                  EngineModeName(initial));
    Report(label, RunAlgo(graph, AlgoKind::kSssp, EngineMode::kHybrid, cfg));
  }
  std::printf(
      "\nreading: hybrid should at least match the better fixed mode; dt=2\n"
      "(the paper's choice) balances reaction speed against switch churn;\n"
      "the Theorem-2 start loses little versus the best forced start.\n");
  return 0;
}
