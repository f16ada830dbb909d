// Checkpoint image format v2 for the block-centric engine: vertex values,
// flags and the undelivered inbox per node, framed by a magic/version header
// and an FNV-1a trailer. Compiled once; the driver hands in pointers to its
// scalar state so partial-failure mutation order matches the original
// template code exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "core/hybrid_switch.h"
#include "core/job_config.h"
#include "core/node_state.h"
#include "util/buffer.h"
#include "util/status.h"

namespace hybridgraph {

/// Views into the driver's scalar state captured/restored by checkpoints.
/// RestoreCheckpoint writes through `last_rco` and `prev_aggregate` directly
/// while decoding; everything else is decoded into locals and assigned only
/// after the header parses.
struct CheckpointState {
  int* superstep = nullptr;
  EngineMode* mode = nullptr;
  EngineMode* prev_produce = nullptr;
  bool* converged = nullptr;
  HybridState* hybrid = nullptr;
  double* prev_aggregate = nullptr;  ///< ctx.prev_aggregate
};

Status WriteEngineCheckpoint(std::vector<NodeState>& nodes,
                             const RangePartition& partition,
                             const CheckpointState& state, size_t msg_size,
                             Buffer* out);

/// Restores a v2 image. On success *supersteps_run is set to the restored
/// superstep; on failure the driver state may be partially mutated, so the
/// checksum must reject a torn image before any mutation (recovery_test
/// relies on that).
Status RestoreEngineCheckpoint(std::vector<NodeState>& nodes,
                               const RangePartition& partition,
                               const JobConfig& config,
                               const CheckpointState& state, size_t msg_size,
                               Slice data, int* supersteps_run);

}  // namespace hybridgraph
