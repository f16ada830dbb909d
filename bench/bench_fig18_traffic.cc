// Figure 18 — network traffic of push vs b-pull for PageRank over wiki and
// orkut. As in the paper, b-pull's combiner is DISABLED here so the ~50%
// traffic reduction comes from concatenation alone; the paper plots a
// GANGLIA timeline, we report the equivalent per-superstep in/out series.
#include <cstdio>

#include "bench_common.h"

using namespace hybridgraph;
using namespace hybridgraph::bench;

int main() {
  PrintHeader("bench_fig18_traffic",
              "Fig 18: network traffic, push vs b-pull (combining disabled)");
  for (const char* name : {"wiki", "orkut"}) {
    const DatasetSpec spec = FindDataset(name).ValueOrDie();
    const double shrink = ShrinkFor(spec);
    const EdgeListGraph& graph = CachedGraph(spec, shrink);
    std::printf("\n-- PageRank over %s: cluster network bytes per superstep --\n",
                name);
    uint64_t totals[2] = {0, 0};
    std::vector<std::vector<uint64_t>> series;
    const EngineMode modes[] = {EngineMode::kPush, EngineMode::kBPull};
    for (int i = 0; i < 2; ++i) {
      JobConfig cfg = SufficientMemoryConfig(spec, shrink);
      cfg.max_supersteps = 5;
      cfg.bpull_combining = false;
      auto stats = RunAlgo(graph, AlgoKind::kPageRank, modes[i], cfg);
      std::vector<uint64_t> col;
      if (stats.ok()) {
        for (const auto& s : stats->supersteps) {
          col.push_back(s.net_bytes);
          totals[i] += s.net_bytes;
        }
      }
      series.push_back(std::move(col));
    }
    std::printf("%4s %14s %14s\n", "t", "push", "b-pull");
    for (size_t t = 0; t < 5; ++t) {
      std::printf("%4zu", t + 1);
      for (const auto& col : series) {
        if (t < col.size()) {
          std::printf(" %14llu", (unsigned long long)col[t]);
        } else {
          std::printf(" %14s", "-");
        }
      }
      std::printf("\n");
    }
    std::printf("total: push=%s  b-pull=%s  reduction=%.1f%%\n",
                HumanBytes(totals[0]).c_str(), HumanBytes(totals[1]).c_str(),
                totals[0] ? 100.0 * (1.0 - static_cast<double>(totals[1]) /
                                               totals[0])
                          : 0.0);
  }
  std::printf(
      "\nexpected shape: roughly 50%% traffic reduction for b-pull from\n"
      "concatenating messages to shared destinations (Sec 6.5).\n");
  return 0;
}
