// Figure 15 — scalability: PageRank runtime versus cluster size (10..30
// nodes) under limited memory, for the state-of-the-art push (pushM) and
// hybrid.
#include <cstdio>

#include "bench_common.h"

using namespace hybridgraph;
using namespace hybridgraph::bench;

int main() {
  PrintHeader("bench_fig15_scalability",
              "Fig 15: PageRank runtime vs number of nodes (limited memory)");
  const uint32_t node_counts[] = {10, 15, 20, 25, 30};
  for (EngineMode mode : {EngineMode::kPushM, EngineMode::kHybrid}) {
    std::printf("\n-- %s: modeled runtime (s) --\n", EngineModeName(mode));
    std::printf("%-8s", "dataset");
    for (uint32_t n : node_counts) std::printf(" %10u", n);
    std::printf("\n");
    for (const char* name : {"livej", "wiki", "orkut", "twi", "fri", "uk"}) {
      const DatasetSpec spec = FindDataset(name).ValueOrDie();
      const double shrink = ShrinkFor(spec);
      const EdgeListGraph& graph = CachedGraph(spec, shrink);
      std::printf("%-8s", name);
      std::fflush(stdout);
      for (uint32_t nodes : node_counts) {
        JobConfig cfg = LimitedMemoryConfig(spec, shrink);
        cfg.num_nodes = nodes;
        auto stats = RunAlgo(graph, AlgoKind::kPageRank, mode, cfg);
        if (!stats.ok()) {
          std::printf(" %10s", "ERR");
          continue;
        }
        std::printf(" %10.4f", stats->modeled_seconds);
        std::fflush(stdout);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nexpected shape: with fewer nodes each node holds more data; pushM\n"
      "degrades super-linearly (more spilled messages), hybrid only\n"
      "sub-linearly (more VE-BLOCK reads).\n");
  return 0;
}
