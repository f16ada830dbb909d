// Figure 14 — per-superstep trace of hybrid running SSSP over the twi model
// with limited memory: (a) the Q_t metric on HDD vs SSD with the two switch
// points, (b) disk I/O, (c) network messages, (d) memory usage, for push,
// b-pull and hybrid.
#include <cstdio>

#include "bench_common.h"

using namespace hybridgraph;
using namespace hybridgraph::bench;

namespace {

Result<JobStats> Run(EngineMode mode, DiskProfile disk) {
  const DatasetSpec spec = FindDataset("twi").ValueOrDie();
  const double shrink = ShrinkFor(spec);
  const EdgeListGraph& graph = CachedGraph(spec, shrink);
  JobConfig cfg = LimitedMemoryConfig(spec, shrink, disk);
  cfg.max_supersteps = 30;
  return RunAlgo(graph, AlgoKind::kSssp, mode, cfg);
}

}  // namespace

int main() {
  PrintHeader("bench_fig14_hybrid_trace",
              "Fig 14: Qt / I/O / network / memory per superstep "
              "(SSSP over twi, limited memory)");

  // (a) Q_t on both clusters.
  std::printf("\n(a) performance metric Q_t per superstep\n");
  std::printf("%4s %14s %14s %8s  (mode column: HDD run)\n", "t", "Qt(HDD)",
              "Qt(SSD)", "mode");
  auto hdd = Run(EngineMode::kHybrid, DiskProfile::Hdd());
  auto ssd = Run(EngineMode::kHybrid, DiskProfile::Ssd());
  if (!hdd.ok() || !ssd.ok()) {
    std::printf("FAILED\n");
    return 1;
  }
  const size_t n = std::min(hdd->supersteps.size(), ssd->supersteps.size());
  for (size_t t = 0; t < n; ++t) {
    const auto& h = hdd->supersteps[t];
    std::printf("%4zu %14.5g %14.5g %8s%s\n", t, h.q_t,
                ssd->supersteps[t].q_t, EngineModeName(h.mode),
                h.switched ? "  <-- switch" : "");
  }

  // (b)-(d): per-superstep resources for the three engines on HDD.
  for (EngineMode mode :
       {EngineMode::kPush, EngineMode::kBPull, EngineMode::kHybrid}) {
    auto stats = Run(mode, DiskProfile::Hdd());
    if (!stats.ok()) continue;
    std::printf("\n%s per superstep (HDD)\n", EngineModeName(mode));
    std::printf("%4s %12s %12s %14s %10s\n", "t", "io_bytes", "net_msgs",
                "memory_bytes", "mode");
    for (const auto& s : stats->supersteps) {
      std::printf("%4d %12llu %12llu %14llu %10s\n", s.superstep,
                  (unsigned long long)s.io.Total(),
                  (unsigned long long)s.messages_on_wire,
                  (unsigned long long)s.memory_highwater_bytes,
                  EngineModeName(s.mode));
    }
  }
  std::printf(
      "\nexpected shape: the switch points land at nearly the same\n"
      "supersteps on HDD and SSD (the sign of Qt is dominated by the\n"
      "message-volume/fragment trade-off, not the device, Sec 6.2), while\n"
      "|Qt| — the expected switching gain — shrinks on SSD; hybrid tracks\n"
      "b-pull early and push late, with a one-superstep resource spike at\n"
      "the b-pull->push switch.\n");
  return 0;
}
