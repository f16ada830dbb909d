// Figure 2 — Motivation: Giraph(push) runtime and the percentage of messages
// on disk versus the receiver message buffer size, PageRank and SSSP over the
// wiki model on 5 nodes. The paper varies the buffer from 0.5M messages to
// "mem"; the model scales those counts by the dataset scale factor.
#include <cstdio>

#include "bench_common.h"

using namespace hybridgraph;
using namespace hybridgraph::bench;

namespace {

void RunSeries(AlgoKind algo) {
  const DatasetSpec spec = FindDataset("wiki").ValueOrDie();
  const double shrink = ShrinkFor(spec);
  const EdgeListGraph& graph = CachedGraph(spec, shrink);

  // Paper x-axis: 0.5M .. 9.5M and "mem", scaled by 1/200.
  std::vector<uint64_t> buffers;
  for (double b = 0.5e6; b <= 9.5e6; b += 1.5e6) {
    buffers.push_back(static_cast<uint64_t>(b / spec.scale / shrink));
  }
  buffers.push_back(UINT64_MAX);

  std::printf("\n-- %s over wiki (push), 5 nodes --\n", AlgoName(algo));
  std::printf("%-14s %12s %14s %12s\n", "buffer(msgs)", "runtime(s)",
              "msgs_on_disk%", "io_bytes");
  for (uint64_t b : buffers) {
    JobConfig cfg = LimitedMemoryConfig(spec, shrink);
    cfg.msg_buffer_per_node = b;
    auto stats = RunAlgo(graph, algo, EngineMode::kPush, cfg);
    if (!stats.ok()) {
      std::printf("%-14llu FAILED: %s\n", (unsigned long long)b,
                  stats.status().ToString().c_str());
      continue;
    }
    uint64_t spilled = 0, produced = 0;
    for (const auto& s : stats->supersteps) {
      spilled += s.messages_spilled;
      produced += s.messages_produced;
    }
    const double pct =
        produced ? 100.0 * static_cast<double>(spilled) / produced : 0.0;
    char label[32];
    if (b == UINT64_MAX) {
      std::snprintf(label, sizeof(label), "mem");
    } else {
      std::snprintf(label, sizeof(label), "%llu", (unsigned long long)b);
    }
    std::printf("%-14s %12.3f %14.1f %12s\n", label, stats->modeled_seconds,
                pct, HumanBytes(stats->TotalIoBytes()).c_str());
  }
}

}  // namespace

int main() {
  PrintHeader("bench_fig02_motivation",
              "Fig 2: impact of the message buffer on push (Giraph) runtime");
  RunSeries(AlgoKind::kPageRank);
  RunSeries(AlgoKind::kSssp);
  std::printf("\nexpected shape: runtime rises sharply as the buffer shrinks\n"
              "and the disk-resident message percentage climbs toward ~98%%.\n");
  return 0;
}
