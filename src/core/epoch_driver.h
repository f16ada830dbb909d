// Streaming epochs over the block-centric engine: the Program-free half.
//
// An *epoch* ingests one timestamped edge batch into the loaded topology
// (VE-BLOCK overlay delta runs + adjacency rewrite + degree patches) and
// reconverges the program by delta propagation instead of a cold batch run.
// ApplyEdgeBatch patches the stores and EpochMetrics reports what an epoch
// cost; Engine::StartEpoch seeds the frontier and rewinds the BSP
// state; AnyEngine::RunEpoch (hybridgraph/any_engine.h) runs the two and
// picks the seed from the program's traits. Every epoch's fixpoint matches a
// cold batch run over the mutated graph — exactly for the monotone traversal
// programs, within the aggregator tolerance band for PageRankDelta.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/node_state.h"
#include "graph/edge_delta.h"
#include "graph/partition.h"
#include "util/status.h"

namespace hybridgraph {

/// \brief Per-epoch observability: what one batch cost to ingest and
/// reconverge. Byte and modeled-time fields are deltas over the epoch (not
/// running totals), so they are directly comparable to a cold run's totals.
struct EpochMetrics {
  uint64_t epoch = 0;             ///< 0-based epoch number (first batch = 0)
  uint64_t timestamp = 0;         ///< EdgeBatch::timestamp
  uint64_t batch_deltas = 0;      ///< deltas in the batch
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t touched_vertices = 0;  ///< distinct batch endpoints
  bool warm = false;              ///< delta propagation vs in-place recompute
  uint64_t supersteps = 0;        ///< supersteps this epoch ran
  double ingest_wall_s = 0;       ///< wall: ApplyEdgeBatch
  double converge_wall_s = 0;     ///< wall: StartEpoch + Run
  double modeled_seconds = 0;     ///< modeled cluster time for the epoch
  uint64_t read_bytes = 0;        ///< storage reads across nodes (modeled)
  uint64_t write_bytes = 0;       ///< storage writes across nodes (modeled)
  uint64_t net_bytes = 0;         ///< transport bytes across nodes (modeled)
  uint64_t delta_runs = 0;        ///< overlay run backlog after the epoch
  uint64_t delta_bytes = 0;       ///< overlay run bytes after the epoch
};

/// CSV header matching EpochMetricsCsvRow (no trailing newline).
std::string EpochMetricsCsvHeader();
/// One CSV row (no trailing newline).
std::string EpochMetricsCsvRow(const EpochMetrics& m);
/// A JSON array of epoch objects (pretty enough for committed baselines).
std::string EpochMetricsJson(const std::vector<EpochMetrics>& all);

/// Applies one edge batch to the mutable stores of every owning node in
/// `nodes`: the VE-BLOCK overlay gains delta runs (in-degree metadata routed
/// to the destination owners), adjacency blocks are rewritten, and
/// out-degrees are patched in memory plus refreshed in the touched on-disk
/// Vblock records (pull serves decode the degree from those records).
/// In-flight readahead is cancelled first. `touched` (optional) receives the
/// batch's sorted, distinct endpoint set for frontier seeding. Runs on the
/// driver thread with metered store operations only.
Status ApplyEdgeBatch(const RangePartition& partition, const EdgeBatch& batch,
                      std::vector<NodeState>& nodes,
                      std::vector<VertexId>* touched);

}  // namespace hybridgraph
