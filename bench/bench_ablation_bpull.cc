// Ablation — which parts of b-pull's design matter: the combiner, the
// pre-pull overlap, auto Vblock sizing (Eq. 5/6) versus fixed counts, and
// the page-cache assumption.
#include <cstdio>

#include "bench_common.h"

using namespace hybridgraph;
using namespace hybridgraph::bench;

namespace {

void Report(const char* label, const Result<JobStats>& stats) {
  if (!stats.ok()) {
    std::printf("%-28s FAILED: %s\n", label, stats.status().ToString().c_str());
    return;
  }
  uint64_t mem = 0;
  for (const auto& s : stats->supersteps) {
    mem = std::max(mem, s.memory_highwater_bytes);
  }
  std::printf("%-28s %12.4f %12s %12s %14llu\n", label,
              stats->modeled_seconds, HumanBytes(stats->TotalIoBytes()).c_str(),
              HumanBytes(stats->TotalNetBytes()).c_str(),
              (unsigned long long)mem);
}

}  // namespace

int main() {
  PrintHeader("bench_ablation_bpull",
              "ablation: b-pull design choices (PageRank over livej, limited "
              "memory)");
  const DatasetSpec spec = FindDataset("livej").ValueOrDie();
  const double shrink = ShrinkFor(spec);
  const EdgeListGraph& graph = CachedGraph(spec, shrink);

  std::printf("%-28s %12s %12s %12s %14s\n", "variant", "runtime(s)", "io",
              "net", "mem_bytes");

  {
    JobConfig cfg = LimitedMemoryConfig(spec, shrink);
    Report("baseline (Eq.5 V, combine)",
           RunAlgo(graph, AlgoKind::kPageRank, EngineMode::kBPull, cfg));
  }
  {
    JobConfig cfg = LimitedMemoryConfig(spec, shrink);
    cfg.bpull_combining = false;
    Report("no combiner (concat only)",
           RunAlgo(graph, AlgoKind::kPageRank, EngineMode::kBPull, cfg));
  }
  {
    JobConfig cfg = LimitedMemoryConfig(spec, shrink);
    cfg.pre_pull = false;
    Report("no pre-pull",
           RunAlgo(graph, AlgoKind::kPageRank, EngineMode::kBPull, cfg));
  }
  {
    JobConfig cfg = LimitedMemoryConfig(spec, shrink);
    cfg.vblocks_per_node = 1;
    Report("V fixed at 1/node",
           RunAlgo(graph, AlgoKind::kPageRank, EngineMode::kBPull, cfg));
  }
  {
    JobConfig cfg = LimitedMemoryConfig(spec, shrink);
    cfg.vblocks_per_node = 100;
    Report("V fixed at 100/node",
           RunAlgo(graph, AlgoKind::kPageRank, EngineMode::kBPull, cfg));
  }
  {
    JobConfig cfg = LimitedMemoryConfig(spec, shrink);
    cfg.page_cache_bytes_per_node = 0;
    Report("no OS page cache",
           RunAlgo(graph, AlgoKind::kPageRank, EngineMode::kBPull, cfg));
  }
  std::printf(
      "\nreading: combining cuts net bytes; V=1 minimizes I/O but blows up\n"
      "memory (BR/BS ~ n_i); V=100 shrinks memory but pays Theorem-1\n"
      "fragment I/O; Eq.5 sits between; without the page cache every Eblock\n"
      "re-read pays device cost and b-pull's advantage shrinks.\n");
  return 0;
}
