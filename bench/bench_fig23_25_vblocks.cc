// Figures 23-25 (Appendix C) — the impact of the Vblock count on b-pull:
// memory requirement (falls with V), I/O bytes (rise with V: more fragments,
// Theorem 1) and the overall runtime, for PageRank and SSSP over livej and
// wiki on 5 nodes.
#include <cstdio>

#include "bench_common.h"

using namespace hybridgraph;
using namespace hybridgraph::bench;

namespace {

void RunSweep(const char* dataset, AlgoKind algo) {
  const DatasetSpec spec = FindDataset(dataset).ValueOrDie();
  const double shrink = ShrinkFor(spec);
  const EdgeListGraph& graph = CachedGraph(spec, shrink);
  // Paper x-axis: min (1 per node) then 50..400 total Vblocks (x10 ticks).
  std::printf("\n-- %s over %s --\n", AlgoName(algo), dataset);
  std::printf("%12s %14s %14s %12s %12s\n", "vblocks/node", "memory_bytes",
              "io_bytes", "fragments", "runtime(s)");
  for (uint32_t per_node : {1u, 10u, 20u, 40u, 60u, 80u}) {
    JobConfig cfg = LimitedMemoryConfig(spec, shrink);
    cfg.vblocks_per_node = per_node;
    if (algo == AlgoKind::kSssp) cfg.max_supersteps = 60;
    auto stats = RunAlgo(graph, algo, EngineMode::kBPull, cfg);
    if (!stats.ok()) {
      std::printf("%12u FAILED\n", per_node);
      continue;
    }
    // Paper reports the average (PageRank) / max (SSSP) across supersteps.
    uint64_t mem = 0, io = 0;
    for (const auto& s : stats->supersteps) {
      mem = std::max(mem, s.memory_highwater_bytes);
      io += s.io.Total();
    }
    if (algo == AlgoKind::kPageRank && !stats->supersteps.empty()) {
      io /= stats->supersteps.size();
    }
    std::printf("%12u %14llu %14llu %12llu %12.4f\n", per_node,
                (unsigned long long)mem, (unsigned long long)io,
                (unsigned long long)stats->load.total_fragments,
                stats->modeled_seconds);
  }
}

}  // namespace

int main() {
  PrintHeader("bench_fig23_25_vblocks",
              "Figs 23-25: memory, I/O and runtime vs the number of Vblocks");
  for (const char* ds : {"livej", "wiki"}) {
    RunSweep(ds, AlgoKind::kPageRank);
    RunSweep(ds, AlgoKind::kSssp);
  }
  std::printf(
      "\nexpected shape: memory drops quickly as V grows (BR/BS shrink);\n"
      "fragments rise with V (Theorem 1) and PageRank I/O and runtime rise\n"
      "with them. For SSSP the paper additionally observes a turning point\n"
      "at very small V (oversized Eblocks waste bandwidth on useless edges\n"
      "during wiki's ~284-superstep convergence tail); the scale models\n"
      "converge in far fewer supersteps, so here that effect only shows as\n"
      "SSSP's I/O bytes *decreasing* with V while runtime still rises.\n");
  return 0;
}
