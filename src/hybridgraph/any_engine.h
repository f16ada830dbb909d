// Type-erased engine runner: one object that fronts Engine<P> (every
// EngineMode) for every built-in algorithm, so drivers, benches and examples
// no longer branch on (algorithm x mode) template combinations themselves.
//
//   JobConfig cfg;
//   cfg.mode = EngineMode::kHybrid;
//   AlgoSpec spec;
//   spec.kind = AlgoKind::kSssp;        // source defaults to max out-degree
//   HG_ASSIGN_OR_RETURN(auto engine, MakeEngine(cfg, spec));
//   HG_RETURN_IF_ERROR(engine->Load(graph));
//   HG_RETURN_IF_ERROR(engine->Run());
//   auto distances = engine->GatherValuesAsDouble();
//   const JobStats& stats = engine->stats();
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/job_config.h"
#include "core/run_metrics.h"
#include "graph/edge_list.h"
#include "util/status.h"

namespace hybridgraph {

/// The built-in vertex programs selectable by name.
enum class AlgoKind : int {
  kPageRank = 0,
  kPageRankDelta = 1,
  kSssp = 2,
  kBfs = 3,
  kLpa = 4,
  kSa = 5,
  kWcc = 6,
};

const char* AlgoKindName(AlgoKind kind);

/// Maps "pagerank", "pagerank-delta", "sssp", "bfs", "lpa", "sa", "wcc"
/// (the hg_run --algo vocabulary) to an AlgoKind.
Result<AlgoKind> ParseAlgoKind(const std::string& name);

/// Algorithm selection plus the per-program knobs the drivers expose.
struct AlgoSpec {
  AlgoKind kind = AlgoKind::kPageRank;

  /// SSSP/BFS source. When source_set is false the engine picks the vertex
  /// with the largest out-degree at Load() time (the traversal then covers
  /// the graph even on scale models with many zero-out-degree vertices).
  VertexId source = 0;
  bool source_set = false;

  /// SA: every source_stride-th vertex seeds one ad (0 keeps the program
  /// default).
  uint32_t sa_source_stride = 0;
};

/// Runtime interface over a loaded engine of any mode and algorithm. The
/// concrete object owns the Engine<P> for the algorithm's program.
class AnyEngine {
 public:
  virtual ~AnyEngine() = default;

  virtual Status Load(const EdgeListGraph& graph) = 0;
  virtual Status Run() = 0;
  virtual Status RunSuperstep() = 0;

  virtual bool converged() const = 0;
  virtual const JobStats& stats() const = 0;

  /// Bytes per vertex value record in GatherValuesRaw().
  virtual size_t value_size() const = 0;
  /// All vertex values, indexed by vertex id, as packed value_size() records
  /// (the program's PodCodec encoding).
  virtual Result<std::vector<uint8_t>> GatherValuesRaw() = 0;
  /// All vertex values projected to double: rank for PageRank variants,
  /// distance/depth for SSSP/BFS, label for LPA/WCC, and the number of
  /// adopted ads (popcount) for SA.
  virtual Result<std::vector<double>> GatherValuesAsDouble() = 0;
};

/// Builds the engine for (config.mode, spec.kind). Validation beyond
/// JobConfig::Validate() happens inside Load() as usual; mode/algorithm
/// pairing errors (pushM with a non-combinable program) surface there.
Result<std::unique_ptr<AnyEngine>> MakeEngine(const JobConfig& config,
                                              const AlgoSpec& spec);

inline Result<std::unique_ptr<AnyEngine>> MakeEngine(const JobConfig& config,
                                                     AlgoKind kind) {
  AlgoSpec spec;
  spec.kind = kind;
  return MakeEngine(config, spec);
}

}  // namespace hybridgraph
