// The hybrid engine's adaptive mode logic (paper Sec 5.3 / 6.1): the initial
// push-vs-b-pull decision at load time (Algorithm 3 line 2, Theorem 2) and
// the per-superstep Q_t evaluation (Eq. 11) with Δt switch suppression.
//
// Everything here is mode-agnostic arithmetic over NodeState stores and
// SuperstepMetrics; program-specific constants arrive via HybridFacts so the
// code compiles once for all Programs.
#pragma once

#include <cstdint>
#include <vector>

#include "core/job_config.h"
#include "core/node_state.h"
#include "core/run_metrics.h"
#include "util/status.h"

namespace hybridgraph {

/// Program constants the cost model needs, captured at Load() time.
struct HybridFacts {
  bool combinable = false;
  size_t msg_size = 0;
  size_t msg_record_size = 0;    ///< 4 + msg_size
  size_t value_record_size = 0;  ///< 8 + kValueSize
  /// The program's update is a monotone idempotent fold (SSSP/BFS/WCC), so
  /// the GraphHP regime's local sub-iterations preserve its fixpoint. Gates
  /// the third row of the regime table (with config.hybrid_regime_graphhp).
  bool locally_iterable = false;
};

/// Mutable hybrid controller state, persisted by checkpoints.
struct HybridState {
  int last_switch_superstep = -1000;
  double last_rco = 0.5;  ///< combining ratio observed in the last b-pull step
  uint64_t prev_responding = 0;  ///< responding count, previous superstep
};

/// Resolves the starting production mode for config.mode (Algorithm 3 line 2;
/// Theorem 2 for hybrid). Every mode but hybrid starts in itself. Hybrid
/// reads its census — the initial frontier (`active` flags and the messages
/// it will send), the fragment total and the store sizes — from `nodes` as
/// they stand, so a load and every epoch start decide from the same source.
/// `b_lower_bound` is the load-time max(0, |E|/2 - f).
Result<EngineMode> DecideInitialMode(const JobConfig& config,
                                     const std::vector<NodeState>& nodes,
                                     const HybridFacts& facts,
                                     uint64_t b_lower_bound);

/// Evaluates Eq. (11) for the superstep just finished: fills the q_t /
/// predicted_* / actual_* fields of `m`, updates the controller state, and —
/// when config.mode == kHybrid and the Δt window allows — flips *mode.
void EvaluateSwitch(SuperstepMetrics* m, const JobConfig& config,
                    const RangePartition& partition,
                    const std::vector<NodeState>& nodes,
                    const HybridFacts& facts, int superstep,
                    HybridState* state, EngineMode* mode);

}  // namespace hybridgraph
