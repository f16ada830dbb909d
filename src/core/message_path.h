// The MessagePath strategy interface: one implementation per execution mode
// (push, pushM, b-pull, vpull, adaptive, graphhp; hybrid switches between
// the push and b-pull paths). The mode-agnostic Engine<P> (core/engine.h)
// owns the BSP loop (Phase A barrier, Phase B barrier, aggregator exchange,
// promotion, convergence) and calls these hooks, so the shared pipeline
// contains no per-mode branches — a path IS the mode. Paths hold an
// Engine<P>* for its services; the class is only forward-declared here, so
// path headers compile without the engine.
//
// The paper's four operators map onto the hooks as:
//   load()    -> Consume()/AfterConsume()   (Phase A: collect messages)
//   update()  -> UpdateProduce()            (Phase B vertex updates)
//   pushRes() -> UpdateProduce()/AfterProduce()
//   pullRes() -> ServePull()                (Algorithm 2, pull servers only)
#pragma once

#include <cstdint>
#include <vector>

#include "core/job_config.h"
#include "core/node_state.h"
#include "core/program.h"
#include "core/run_metrics.h"
#include "graph/edge_list.h"
#include "util/buffer.h"
#include "util/status.h"

namespace hybridgraph {

template <typename P>
class Engine;

/// Raw-byte shims over the Program's typed operations, instantiated once per
/// Program and handed to the compiled containers as plain function pointers.
/// PodCodec encode/decode is a memcpy round trip, so combining through the
/// shim is bit-identical to combining typed values.
template <typename P>
struct ProgramOps {
  using Message = typename P::Message;

  /// acc = Combine(acc, other); no-op for non-combinable programs.
  static void CombineRaw(uint8_t* acc, const uint8_t* other) {
    if constexpr (P::kCombinable) {
      const Message a = PodCodec<Message>::Decode(acc);
      const Message b = PodCodec<Message>::Decode(other);
      PodCodec<Message>::Encode(P::Combine(a, b), acc);
    } else {
      (void)acc;
      (void)other;
    }
  }
};

/// What a path needs from the shared topology and which engine services
/// apply to it. Each path fixes its value once, at construction.
struct PathCaps {
  /// Build-time layouts; the engine ORs them over the installed paths into
  /// one shared block topology.
  bool needs_adjacency = false;
  bool needs_veblocks = false;
  /// False for paths (vpull) that predate aggregator support.
  bool supports_aggregator = true;
  /// Whether EvaluateSwitch/Q_t metrics apply when this path produced.
  bool hybrid_metrics = true;
  /// Whether this path answers Pull-Requests (implements ServePull). The
  /// engine routes an incoming pull to the previous superstep's producer
  /// path when it serves pulls, and fails the request otherwise.
  bool serves_pulls = false;
  /// Whether this path folds push-side sends to mirrored hot vertices into
  /// per-node accumulator slots (degree-aware vertex mirroring). The engine
  /// only builds the MirrorTable when an installed path opts in.
  bool mirrors_hot_vertices = false;

  bool operator==(const PathCaps&) const = default;
};

/// Strategy for one execution mode. The engine invokes Consume/AfterConsume
/// on the CONSUMER path (the previous superstep's production mode) and
/// UpdateProduce/AfterProduce/accounting/Promote on the PRODUCER path, one
/// call per simulated node, fanned out across the thread pool.
template <typename P>
class MessagePath {
 public:
  virtual ~MessagePath() = default;

  /// The mode this path implements (its registry slot).
  virtual EngineMode mode() const = 0;

  const PathCaps& caps() const { return caps_; }

  /// Load-time construction of whatever this path needs (stores, caches,
  /// handler state). Block paths share one topology via the engine.
  virtual Status Build(const EdgeListGraph& graph) = 0;

  /// Resets per-superstep counters and meter snapshots (producer side).
  virtual void BeginAccounting() = 0;

  /// Phase A for node i: collect the messages addressed to its vertices.
  /// Paths gate superstep 0 internally.
  virtual Status Consume(uint32_t i) = 0;
  /// Post-Phase-A barrier drain for node i (staged accounting / payloads).
  virtual Status AfterConsume(uint32_t i) = 0;

  /// Phase B for node i: update vertices, produce messages.
  virtual Status UpdateProduce(uint32_t i) = 0;
  /// Post-Phase-B barrier drain for node i (staged push batches etc.).
  virtual Status AfterProduce(uint32_t i) = 0;

  /// Compute/communication overlap hook, run per node right after
  /// AfterProduce(i) in the same drain task (traced as "drain.overlap"):
  /// the path schedules background readahead for the data its NEXT
  /// superstep's consume/serve phase will touch, so the reads overlap the
  /// remaining drain work of the other nodes and the aggregator exchange.
  /// Must not touch modeled counters — prefetch reads are metered at the
  /// consumption point, never here.
  virtual Status WarmupNextSuperstep(uint32_t i) {
    (void)i;
    return Status::OK();
  }

  /// Folds node counters into this superstep's metrics record.
  virtual SuperstepMetrics EndAccounting(EngineMode produce_mode,
                                         bool switched) = 0;

  /// Barrier promotion: expose next-superstep state, return cluster totals
  /// for the convergence check.
  virtual void Promote(uint64_t* responding_total,
                       uint64_t* inflight_messages) = 0;

  /// Collects all vertex values from this path's stores (global, indexed by
  /// vertex id).
  virtual Result<std::vector<typename P::Value>> GatherValues() = 0;

  /// Algorithm 2 (Pull-Respond), served from the requester's thread. Only
  /// pull-serving paths (caps().serves_pulls) implement this.
  virtual Status ServePull(NodeState& node, NodeId requester, Slice payload,
                           Buffer* response) {
    (void)node;
    (void)requester;
    (void)payload;
    (void)response;
    return Status::Unimplemented("this path does not serve pulls");
  }

 protected:
  explicit MessagePath(PathCaps caps) : caps_(caps) {}

 private:
  const PathCaps caps_;
};

}  // namespace hybridgraph
