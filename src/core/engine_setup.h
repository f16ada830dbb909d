// Load-time construction of the block-centric engine: transport and
// per-node storage factories, the CPU-scale fold, Vblock derivation
// (Eq. 5/6), and the full block-centric topology build (partition, stores,
// flags, inboxes, load metrics). Program-specific pieces (initial
// values/activity, raw combine shims) arrive as callbacks so this compiles
// once.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/job_config.h"
#include "core/node_state.h"
#include "core/run_metrics.h"
#include "graph/edge_list.h"
#include "net/transport.h"
#include "util/status.h"

namespace hybridgraph {

/// Builds the configured transport (TCP with the config's retry/timeout
/// options, or in-process). Does not Start() it.
std::unique_ptr<Transport> MakeTransport(const JobConfig& config);

/// Opens per-node storage under `storage_dir/<subdir>` (or in-memory) and
/// enables the modeled page cache.
Result<std::unique_ptr<StorageService>> MakeNodeStorage(const JobConfig& config,
                                                        const std::string& subdir);

/// Folds config.cpu.scale into every per-unit cost once (idempotent because
/// the scale resets to 1).
void FoldCpuScale(JobConfig* config);

/// Modeled load time for `bytes_written`: sequential write split across the
/// cluster.
double ModeledLoadSeconds(const JobConfig& config, uint64_t bytes_written);

/// Eq. (5)/(6): Vblock count for one node given its degree census.
uint32_t DeriveVblocks(const JobConfig& config, bool combinable, NodeId node,
                       uint64_t node_in_degree, uint64_t node_vertices);

/// Program-specific hooks for BuildBlockTopology.
struct BlockTopologyHooks {
  std::function<void(VertexId, uint8_t*)> init_value;
  std::function<bool(VertexId)> init_active;
  /// P::Combine over raw payloads; null when messages are not combinable.
  /// Folds the pending set (appends instead when null), is installed on the
  /// sender staging, and selects the combinable Vblock derivation.
  SendStaging::CombineRawFn combiner = nullptr;
};

/// Builds everything the block-centric engine needs before superstep 0:
/// partition (Eq. 5/6 Vblocks), edges bucketed by source node, per-node
/// storage + vertex/adjacency/VE-BLOCK stores, flags, staging, double-
/// buffered inboxes with spills, and the load metrics. RPC handlers are NOT
/// registered here (the engine wires those to its paths); the transport is
/// started. `value_size` is P::kValueSize, `msg_size` P::kMessageSize.
Status BuildBlockTopology(const EdgeListGraph& graph, const JobConfig& config,
                          size_t value_size, size_t msg_size,
                          bool need_adj, bool need_ve,
                          const BlockTopologyHooks& hooks,
                          RangePartition* partition,
                          std::unique_ptr<Transport>* transport,
                          std::vector<NodeState>* nodes, LoadMetrics* load);

/// Sets every `active` flag of `node` to init_active(v) — the superstep-0
/// frontier of a load, and of an epoch that recomputes from scratch.
void SeedInitActive(const std::function<bool(VertexId)>& init_active,
                    NodeState* node);

}  // namespace hybridgraph
