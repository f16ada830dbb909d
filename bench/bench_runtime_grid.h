// Shared grid printer for the Fig 7/8/9/10 family: algorithms x datasets x
// all five engines.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"

namespace hybridgraph {
namespace bench {

struct GridOptions {
  std::vector<std::string> datasets;
  std::vector<AlgoKind> algos = {AlgoKind::kPageRank, AlgoKind::kSssp,
                                 AlgoKind::kLpa, AlgoKind::kSa};
  /// Builds the config for one (dataset, shrink) cell.
  std::function<JobConfig(const DatasetSpec&, double)> make_config;
  /// Extracts the reported number from the stats.
  std::function<double(const JobStats&)> metric =
      [](const JobStats& s) { return s.modeled_seconds; };
  const char* metric_name = "modeled runtime (s)";
};

inline void RunGrid(const GridOptions& opts) {
  const EngineMode modes[] = {EngineMode::kPush, EngineMode::kPushM,
                              EngineMode::kVPull, EngineMode::kBPull,
                              EngineMode::kHybrid};
  for (AlgoKind algo : opts.algos) {
    std::printf("\n-- %s: %s --\n", AlgoName(algo), opts.metric_name);
    std::printf("%-8s", "dataset");
    for (EngineMode mode : modes) std::printf(" %12s", EngineModeName(mode));
    std::printf("\n");
    for (const auto& name : opts.datasets) {
      const DatasetSpec spec = FindDataset(name).ValueOrDie();
      const double shrink = ShrinkFor(spec);
      const EdgeListGraph& graph = CachedGraph(spec, shrink);
      std::printf("%-8s", name.c_str());
      std::fflush(stdout);
      for (EngineMode mode : modes) {
        if (!ModeSupports(algo, mode)) {
          std::printf(" %12s", "F");  // paper: missing bar
          continue;
        }
        JobConfig cfg = opts.make_config(spec, shrink);
        auto stats = RunAlgo(graph, algo, mode, cfg);
        if (!stats.ok()) {
          std::printf(" %12s", "ERR");
          continue;
        }
        std::printf(" %12.4f", opts.metric(*stats));
        std::fflush(stdout);
      }
      std::printf("\n");
    }
  }
}

}  // namespace bench
}  // namespace hybridgraph
