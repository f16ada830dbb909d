// Superstep accounting for the block-centric engine: per-node counter reset
// at the superstep start, and the end-of-superstep fold of every node's
// counters, meter deltas and modeled-time components into one
// SuperstepMetrics record (the observables all paper figures draw from).
#pragma once

#include <cstdint>
#include <vector>

#include "core/job_config.h"
#include "core/node_state.h"
#include "core/run_metrics.h"
#include "net/transport.h"

namespace hybridgraph {

/// Zeroes every node's per-superstep counters and snapshots its disk/net
/// meters (BeginSuperstepAccounting).
void BeginBlockAccounting(std::vector<NodeState>& nodes, Transport& transport);

struct BlockAccountingInputs {
  int superstep = 0;
  EngineMode produce_mode = EngineMode::kPush;
  bool switched = false;
  const JobConfig* config = nullptr;
  const RangePartition* partition = nullptr;
  Transport* transport = nullptr;
  TransportFaultCounters fault_snapshot;
  /// Per-node path-specific modeled-memory buffer bytes on top of the node's
  /// own mem_highwater (push family: pending inbox + moc accumulator slots;
  /// b-pull: nothing). Parallel to `nodes`.
  const std::vector<uint64_t>* extra_memory_bytes = nullptr;
};

/// Folds node counters into one SuperstepMetrics (EndSuperstepAccounting up
/// to — but excluding — the hybrid EvaluateSwitch and the stats push, which
/// stay with the engine).
SuperstepMetrics AccumulateBlockMetrics(std::vector<NodeState>& nodes,
                                        const BlockAccountingInputs& in);

/// Modeled memory: VE-BLOCK metadata kept resident by b-pull/hybrid plus the
/// node's buffer high-water plus the path-specific extra (ModeledMemoryBytes).
uint64_t ModeledMemoryBytes(const NodeState& node,
                            const RangePartition& partition,
                            uint64_t extra_buffer_bytes);

/// Barrier promotion: swaps responding/vblock/inbox double buffers and
/// returns the cluster totals the convergence check needs.
void PromoteBlockState(std::vector<NodeState>& nodes, uint64_t* responding_total,
                       uint64_t* inflight_messages);

}  // namespace hybridgraph
