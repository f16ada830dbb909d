// Type-erased engine runner: one object that fronts Engine<P> (every
// EngineMode) for every built-in algorithm, so drivers, benches, examples
// and the query server never branch on (algorithm x mode) template
// combinations themselves. The same object runs batch jobs and streaming
// epochs (core/epoch_driver.h).
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
//
// A streaming engine (MakeEpochEngine) then reconverges after each edge
// batch with RunEpoch(batch, &epoch_metrics).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/epoch_driver.h"
#include "core/job_config.h"
#include "core/run_metrics.h"
#include "graph/edge_delta.h"
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

  /// PageRankDelta: halt once the L1 rank delta drops below this (0 keeps
  /// the program default).
  double tolerance = 0;
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
  /// Vertex count of the loaded graph (0 before Load()).
  virtual uint64_t num_vertices() const = 0;

  // Streaming epochs: after Run() converges the loaded graph once, each
  // RunEpoch ingests one batch and reconverges by delta propagation.

  /// OK when this engine can run epochs: its program reconverges from a
  /// warm restart and its mode is a streaming (block-centric) mode. Both
  /// rules live in any_engine.cc. FailedPrecondition otherwise.
  virtual Status CheckStreamable() const = 0;
  /// Ingests `batch` into the loaded stores and reconverges; fills `m`
  /// (optional). FailedPrecondition when CheckStreamable() fails.
  virtual Status RunEpoch(const EdgeBatch& batch, EpochMetrics* m) = 0;
  /// Folds overlay delta runs (>= min_runs per cell) into base blocks.
  virtual Status CompactAll(uint64_t min_runs) = 0;
  /// Epochs run so far (the initial Run() is not counted).
  virtual uint64_t epochs_run() const = 0;
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

/// The streaming engine's name of AnyEngine, kept for existing callers.
using AnyEpochEngine = AnyEngine;

/// Algorithm selector for MakeEpochEngine, by hg_run --algo name.
struct EpochAlgoSpec {
  std::string name = "pagerank-delta";  ///< pagerank-delta | sssp | bfs | wcc
  VertexId source = 0;                  ///< sssp / bfs
  double tolerance = 1e-9;              ///< pagerank-delta halt tolerance
};

/// Builds a streaming engine for `spec` over `config`: MakeEngine with the
/// source pinned to spec.source, rejected with InvalidArgument before any
/// Load() unless CheckStreamable() holds.
Result<std::unique_ptr<AnyEngine>> MakeEpochEngine(const JobConfig& config,
                                                   const EpochAlgoSpec& spec);

}  // namespace hybridgraph
