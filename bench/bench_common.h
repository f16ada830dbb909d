// Shared harness for the paper-reproduction benches: dataset scale models,
// the paper's two memory scenarios, and engine dispatch across all five
// systems for all four workloads.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "hybridgraph/hybridgraph.h"

namespace hybridgraph {
namespace bench {

/// Printed workload name ("PageRank", "SSSP", "LPA", "SA") in bench tables.
const char* AlgoName(AlgoKind algo);

/// Supersteps per workload: PageRank and LPA report 5 supersteps like the
/// paper; the traversal workloads run to convergence under a safety cap.
int MaxSuperstepsFor(AlgoKind algo);

/// Extra shrink factor applied to the big Table-4 models so the whole bench
/// suite stays fast on one core (HG_BENCH_FULL=1 disables it).
double ShrinkFor(const DatasetSpec& spec);

/// The graph for a dataset at `shrink`, memoized across calls.
const EdgeListGraph& CachedGraph(const DatasetSpec& spec, double shrink);

/// Paper message buffer B_i scaled to the model (0.5M/1M/2M messages at full
/// scale, divided by the dataset scale factor and `shrink`).
uint64_t ScaledBuffer(const DatasetSpec& spec, double shrink);

/// GraphLab vertex cache (2.5M vertices at full scale) scaled the same way.
uint64_t ScaledVertexCache(const DatasetSpec& spec, double shrink);

/// Limited-memory scenario of Figs 8-10 (graph + overflow messages on disk).
JobConfig LimitedMemoryConfig(const DatasetSpec& spec, double shrink,
                              DiskProfile disk = DiskProfile::Hdd());

/// Sufficient-memory scenario of Fig 7.
JobConfig SufficientMemoryConfig(const DatasetSpec& spec, double shrink);

/// Runs `algo` under `mode` (push/pushM/pull/b-pull/hybrid) and returns the
/// job stats. `cfg.mode` is overwritten by `mode`.
Result<JobStats> RunAlgo(const EdgeListGraph& graph, AlgoKind algo,
                         EngineMode mode, JobConfig cfg);

/// True when the paper ran this (algo, mode) combination (pushM requires
/// combinable messages, so it is skipped for LPA/SA, matching the missing
/// bars in Figs 7-9).
bool ModeSupports(AlgoKind algo, EngineMode mode);

/// Prints the standard bench header (hardware profiles, scale note).
void PrintHeader(const std::string& title, const std::string& paper_ref);

}  // namespace bench
}  // namespace hybridgraph
