// The HybridGraph BSP engine: push, pushM, b-pull and hybrid execution of a
// vertex Program over a simulated cluster of disk-resident nodes.
//
// Execution model per superstep t (uniform across modes):
//   Phase A (consume)  — every node collects the messages addressed to its
//     vertices, via the path that PRODUCED them at t-1: under push
//     consumption they were delivered at t-1 into a double-buffered inbox
//     (memory portion B_i + sorted disk spill); under b-pull consumption the
//     node issues one pull request per local Vblock and the senders run
//     Pull-Respond (Algorithm 2) against their Eblocks.
//   Phase B (update + produce) — every node updates its vertices
//     (update()), records responding flags (setResFlag), and if the
//     *production* mode is push immediately generates and ships messages
//     from the adjacency store (pushRes()); under b-pull production nothing
//     is sent — next superstep's pulls will call pullRes() on demand.
//
// Phase A of all nodes runs before any Phase B, which gives the BSP
// semantics (pull always observes superstep t-1 values) without vertex
// value versioning. Hybrid switching (Sec 5.2) falls out of the mode split:
// consumption mode at t is simply the production mode chosen at t-1, so the
// b-pull -> push switch superstep both pulls and pushes (the paper's
// resource-contention spike at superstep 11 of Fig 14), and the
// push -> b-pull switch superstep consumes pushed messages and produces
// nothing, exactly as in Fig 6.
//
// Engine<P> owns everything mode-agnostic: the BSP loop, the thread-pool
// phase barriers, the aggregator exchange, hybrid switching (Eq. 11),
// checkpointing and streaming epochs. Everything mode-specific lives in the
// MessagePath strategies under core/paths/; the constructor installs
// exactly the paths config.mode runs (push and b-pull under hybrid, the
// mode's own path otherwise). Each phase is wrapped in trace spans (cluster-
// wide and per node) that export to chrome://tracing when config.trace_path
// is set.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregators.h"
#include "core/engine_checkpoint.h"
#include "core/engine_setup.h"
#include "core/hybrid_switch.h"
#include "core/job_config.h"
#include "core/message_path.h"
#include "core/mirror_table.h"
#include "core/node_state.h"
#include "core/paths/adaptive_path.h"
#include "core/paths/bpull_path.h"
#include "core/paths/ghp_path.h"
#include "core/paths/push_m_path.h"
#include "core/paths/push_path.h"
#include "core/paths/vpull_path.h"
#include "core/program.h"
#include "core/run_metrics.h"
#include "core/trace.h"
#include "graph/edge_list.h"
#include "graph/partition.h"
#include "net/transport.h"
#include "util/buffer.h"
#include "util/codec.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hybridgraph {

/// How Engine::StartEpoch seeds a streaming epoch's frontier.
enum class EpochSeed {
  kAll,      ///< warm restart with every vertex active
  kTouched,  ///< warm restart with only the batch's endpoints active
  kReinit,   ///< cold restart: InitValue values, InitActive frontier
};

template <typename P>
class Engine {
 public:
  using Value = typename P::Value;
  using Message = typename P::Message;

  static constexpr size_t kMsgSize = P::kMessageSize;
  /// Wire/spill record: destination id + message payload.
  static constexpr size_t kMsgRecordSize = 4 + kMsgSize;
  /// Vertex value record on disk (id + out-degree + payload).
  static constexpr size_t kValueRecordSize = 8 + P::kValueSize;

  Engine(JobConfig config, P program)
      : config_(std::move(config)), program_(std::move(program)) {
    StaticCheckProgram<P>();
    // The one mode -> path mapping. An invalid mode installs nothing and
    // fails JobConfig::Validate at Load.
    switch (config_.mode) {
      case EngineMode::kPush:
        Install<PushPath<P>>();
        break;
      case EngineMode::kPushM:
        Install<PushMPath<P>>();
        break;
      case EngineMode::kVPull:
        Install<VPullPath<P>>();
        break;
      case EngineMode::kBPull:
        Install<BPullPath<P>>();
        break;
      case EngineMode::kHybrid:
        Install<PushPath<P>>();
        Install<BPullPath<P>>();
        break;
      case EngineMode::kAdaptive:
        adaptive_ = Install<AdaptivePath<P>>();
        break;
      case EngineMode::kGraphHp:
        Install<GhpPath<P>>();
        break;
    }
  }

  /// Partitions the graph, derives Vblock counts (Eq. 5/6), builds the
  /// disk layouts the installed paths need, and initializes vertex state.
  Status Load(const EdgeListGraph& graph) {
    HG_RETURN_IF_ERROR(graph.Validate());
    JobConfig::JobFacts job_facts;
    job_facts.num_vertices = graph.num_vertices;
    job_facts.combinable_messages = P::kCombinable;
    HG_RETURN_IF_ERROR(config_.Validate(job_facts));
    if (!config_.failpoints.empty()) {
      HG_RETURN_IF_ERROR(
          FailPointRegistry::Instance().ArmFromString(config_.failpoints));
    }
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
    if (config_.io.prefetch_depth > 0) {
      io_pool_ = std::make_unique<ThreadPool>(kPrefetchThreads);
    }
    FoldCpuScale(&config_);
    ctx_.num_vertices = graph.num_vertices;
    ctx_.superstep = 0;
    if (!config_.trace_path.empty()) trace_.Enable();

    for (const auto& path : paths_) {
      HG_RETURN_IF_ERROR(path->Build(graph));
    }

    HG_RETURN_IF_ERROR(ChooseInitialMode());
    loaded_ = true;
    return Status::OK();
  }

  /// Runs exactly one superstep (exposed for tests and traces).
  Status RunSuperstep() {
    if (!loaded_) return Status::FailedPrecondition("Load() first");
    ctx_.superstep = superstep_;
    MessagePath<P>* cons = registry_[static_cast<size_t>(prev_produce_)];
    MessagePath<P>* prod = registry_[static_cast<size_t>(mode_)];
    prod->BeginAccounting();
    fault_snapshot_ = transport_->fault_counters();

    const EngineMode produce_mode = mode_;
    const bool switched = superstep_ > 0 && produce_mode != prev_produce_;
    for (auto& node : nodes_) {
      if (node.pipeline) {
        node.pipeline->SetContext(superstep_, static_cast<int>(prev_produce_));
      }
    }

    // Phase A on all nodes, then Phase B on all nodes: BSP-consistent pulls.
    // Each phase fans out across the pool (one task per node) with a barrier
    // in between; the staged cross-node effects (pull-serve accounting,
    // pushed batches) are drained node-locally right after each barrier in
    // fixed sender/requester order so every counter and float sum matches
    // the single-thread run.
    const auto t0 = std::chrono::steady_clock::now();
    {
      TraceSpan phase(&trace_, "consume", superstep_, -1, prev_produce_);
      HG_RETURN_IF_ERROR(
          pool_->ParallelFor(config_.num_nodes, [&](uint32_t i) {
            TraceSpan span(&trace_, "consume", superstep_,
                           static_cast<int>(i), prev_produce_);
            return cons->Consume(i);
          }));
      HG_RETURN_IF_ERROR(
          pool_->ParallelFor(config_.num_nodes,
                             [&](uint32_t i) { return cons->AfterConsume(i); }));
    }
    const auto t1 = std::chrono::steady_clock::now();
    {
      TraceSpan phase(&trace_, "update", superstep_, -1, produce_mode);
      HG_RETURN_IF_ERROR(
          pool_->ParallelFor(config_.num_nodes, [&](uint32_t i) {
            TraceSpan span(&trace_, "update", superstep_, static_cast<int>(i),
                           produce_mode);
            return prod->UpdateProduce(i);
          }));
    }
    const auto t2 = std::chrono::steady_clock::now();
    {
      TraceSpan phase(&trace_, "drain", superstep_, -1, produce_mode);
      HG_RETURN_IF_ERROR(
          pool_->ParallelFor(config_.num_nodes, [&](uint32_t i) {
            {
              TraceSpan span(&trace_, "drain", superstep_, static_cast<int>(i),
                             produce_mode);
              HG_RETURN_IF_ERROR(prod->AfterProduce(i));
            }
            // Compute/communication overlap: while the other nodes are still
            // draining (and before the aggregator exchange below), schedule
            // background readahead for the data the next superstep's consume
            // phase will touch. Observability only — nothing modeled moves.
            TraceSpan overlap(&trace_, "drain.overlap", superstep_,
                              static_cast<int>(i), produce_mode);
            return prod->WarmupNextSuperstep(i);
          }));
    }
    const auto t3 = std::chrono::steady_clock::now();

    // Aggregator barrier: partial sums travel to the master and the global
    // value is broadcast back (metered control traffic), becoming visible to
    // the next superstep's Update calls.
    double aggregate = 0;
    if constexpr (HasAggregator<P>) {
      if (prod->caps().supports_aggregator) {
        Buffer payload;
        Encoder enc(&payload);
        for (auto& node : nodes_) {
          aggregate += node.aggregate_partial;
          if (node.id != 0) {
            payload.Clear();
            enc.PutDouble(node.aggregate_partial);
            HG_RETURN_IF_ERROR(transport_->Post(
                node.id, 0, RpcMethod::kControl, payload.AsSlice()));
          }
        }
        for (uint32_t y = 1; y < config_.num_nodes; ++y) {
          payload.Clear();
          enc.PutDouble(aggregate);
          HG_RETURN_IF_ERROR(
              transport_->Post(0, y, RpcMethod::kControl, payload.AsSlice()));
        }
        pull_gen_aggregate_ = ctx_.prev_aggregate;
        ctx_.prev_aggregate = aggregate;
      }
    }

    // Metrics and the switching decision read next-superstep flags, so they
    // run before the barrier swap.
    SuperstepMetrics m = prod->EndAccounting(produce_mode, switched);
    if (prod->caps().hybrid_metrics) {
      EvaluateSwitch(&m, config_, partition_, nodes_, facts_, superstep_,
                     &hybrid_, &mode_);
    }
    m.aggregate = aggregate;
    m.phase_consume_wall_s = std::chrono::duration<double>(t1 - t0).count();
    m.phase_update_wall_s = std::chrono::duration<double>(t2 - t1).count();
    m.phase_drain_wall_s = std::chrono::duration<double>(t3 - t2).count();
    stats_.supersteps.push_back(m);
    stats_.modeled_seconds += m.superstep_seconds;

    // Barrier: promote next-superstep state.
    uint64_t responding_total = 0;
    uint64_t inflight = 0;
    prod->Promote(&responding_total, &inflight);

    prev_produce_ = produce_mode;
    ++superstep_;
    stats_.supersteps_run = superstep_;

    if (responding_total == 0 && inflight == 0 && superstep_ > 0) {
      converged_ = true;
    }
    if constexpr (HasAggregateHalt<P>) {
      if (prod->caps().supports_aggregator && superstep_ > 1 &&
          program_.ShouldHalt(aggregate)) {
        converged_ = true;
      }
    }
    return Status::OK();
  }

  /// Runs supersteps until convergence or config.max_supersteps.
  Status Run() {
    const auto start = std::chrono::steady_clock::now();
    while (superstep_ < config_.max_supersteps && !converged_) {
      HG_RETURN_IF_ERROR(RunSuperstep());
    }
    stats_.converged = converged_;
    stats_.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (trace_.enabled()) {
      HG_RETURN_IF_ERROR(trace_.WriteJson(config_.trace_path));
    }
    return Status::OK();
  }

  /// Collects all vertex values (global, indexed by vertex id) from the
  /// first installed path; every path of a mode reads the same stores.
  Result<std::vector<Value>> GatherValues() {
    if (paths_.empty()) return Status::FailedPrecondition("no path installed");
    return paths_.front()->GatherValues();
  }

  /// Serializes the full runtime state (superstep, mode, vertex values,
  /// flags, undelivered messages) so a failed job can resume from the last
  /// barrier instead of recomputing from scratch (the lightweight
  /// fault-tolerance the paper leaves as future work, Appendix A).
  Status WriteCheckpoint(Buffer* out) {
    if (!loaded_) return Status::FailedPrecondition("Load() first");
    if (!topology_built_) {
      return Status::FailedPrecondition(
          "checkpoints require a block-centric topology");
    }
    return WriteEngineCheckpoint(nodes_, partition_, MakeCheckpointState(),
                                 out);
  }

  /// Restores a WriteCheckpoint() image into a freshly Load()ed engine with
  /// an identical config and graph. Per-superstep stats restart empty. An
  /// image whose mode names a path this engine did not install is rejected.
  Status RestoreCheckpoint(Slice data) {
    if (!loaded_) return Status::FailedPrecondition("Load() first");
    if (!topology_built_) {
      return Status::FailedPrecondition(
          "checkpoints require a block-centric topology");
    }
    // In-flight readahead was issued against pre-restore state; cancel it
    // all before the restore rewrites blocks, so nothing stale survives.
    // (Writes during the restore also invalidate matching staged reads via
    // the storage mutation observer — this is the belt to that suspender.)
    for (auto& node : nodes_) {
      if (node.pipeline) node.pipeline->CancelAll();
    }
    return RestoreEngineCheckpoint(nodes_, partition_, push_policy_,
                                   MakeCheckpointState(), data,
                                   &stats_.supersteps_run);
  }

  /// Starts a streaming epoch over the already-mutated stores (AnyEngine::
  /// RunEpoch applies the batch first with ApplyEdgeBatch): seeds the
  /// frontier per `seed`, rewinds the BSP state to superstep 0 with fresh
  /// hybrid and aggregator state, and re-decides the initial mode from the
  /// epoch's frontier. The normal Run() loop then reconverges. `touched` is
  /// read only for kTouched. A warm seed keeps the converged values as the
  /// starting point (ctx.warm_restart lets seeded traversal vertices respond
  /// at superstep 0); kReinit rewrites every Vblock to InitValue and
  /// re-seeds InitActive. Runs on the calling thread with metered store
  /// operations only, so modeled metrics are thread-count invariant.
  Status StartEpoch(EpochSeed seed, const std::vector<VertexId>& touched) {
    if (!loaded_ || !topology_built_) {
      return Status::FailedPrecondition(
          "streaming requires a loaded block-centric topology");
    }
    superstep_ = 0;
    converged_ = false;
    hybrid_ = HybridState{};
    ctx_.superstep = 0;
    ctx_.prev_aggregate = 0;
    ctx_.warm_restart = seed != EpochSeed::kReinit;
    pull_gen_aggregate_ = 0;
    const BlockTopologyHooks hooks = TopologyHooks();
    for (auto& node : nodes_) {
      if (seed == EpochSeed::kReinit) {
        HG_RETURN_IF_ERROR(node.vstore->WriteInitValues(hooks.init_value));
        SeedInitActive(hooks.init_active, &node);
      } else {
        const uint8_t all = seed == EpochSeed::kAll ? 1 : 0;
        std::fill(node.active.begin(), node.active.end(), all);
      }
      HG_RETURN_IF_ERROR(ResetEpochState(node));
    }
    if (seed == EpochSeed::kTouched) {
      for (VertexId v : touched) {
        NodeState& node = nodes_[partition_.NodeOf(v)];
        node.active[node.LocalIdx(v)] = 1;
      }
    }
    return ChooseInitialMode();
  }

  /// The adaptive path's accumulated per-cell decision log (empty unless
  /// config.mode == kAdaptive) — the golden-test surface.
  const std::string& adaptive_decision_log() const {
    static const std::string kEmpty;
    return adaptive_ ? adaptive_->decision_log() : kEmpty;
  }

  // ---------------------------------------------------------------- access

  const JobStats& stats() const { return stats_; }
  JobStats* mutable_stats() { return &stats_; }
  const RangePartition& partition() const { return partition_; }
  const JobConfig& config() const { return config_; }
  /// Receive/consume policy of the push family; set by the topology build.
  const PushPolicy& push_policy() const { return push_policy_; }
  P& program() { return program_; }
  bool converged() const { return converged_; }
  int superstep() const { return superstep_; }
  /// Production mode of the upcoming superstep (hybrid switches this).
  EngineMode current_mode() const { return mode_; }
  /// Theorem 2's max(0, |E|/2 - f) (valid after Load()).
  uint64_t b_lower_bound() const { return stats_.load.b_lower_bound; }

  // --------------------------------------------------------- path services

  /// Builds the shared block-centric topology (partition, stores, flags,
  /// inboxes, RPC wiring) the first time a block path asks for it; later
  /// calls are no-ops so push and b-pull share one build under hybrid.
  Status EnsureBlockTopology(const EdgeListGraph& graph) {
    if (topology_built_) return Status::OK();
    topology_built_ = true;

    bool need_adj = false;
    bool need_ve = false;
    bool any_mirrors = false;
    for (const auto& path : paths_) {
      need_adj = need_adj || path->caps().needs_adjacency;
      need_ve = need_ve || path->caps().needs_veblocks;
      any_mirrors = any_mirrors || path->caps().mirrors_hot_vertices;
    }

    const BlockTopologyHooks hooks = TopologyHooks();
    HG_RETURN_IF_ERROR(BuildBlockTopology(graph, config_, P::kValueSize,
                                          kMsgSize, need_adj, need_ve, hooks,
                                          &partition_, &transport_, &nodes_,
                                          &stats_.load));
    // Shared by every block path and checkpoint restore (CPU scale folded).
    push_policy_ = PushPolicy::For(config_, kMsgSize, hooks.combiner);
    // Degree-aware vertex mirroring: hot set from the global in-degree
    // distribution, one accumulator slot per (node, hot vertex). Only built
    // when an installed producer folds mirrors (push family / adaptive);
    // Validate() already rejected the threshold for non-combinable programs.
    if (config_.mirror_degree_threshold > 0 && P::kCombinable && any_mirrors) {
      mirror_table_ =
          MirrorTable::Build(graph.InDegrees(), config_.mirror_degree_threshold);
      mirroring_ = !mirror_table_.empty();
      for (auto& node : nodes_) {
        node.mirror_acc.assign(mirror_table_.size() * kMsgSize, 0);
        node.mirror_has.assign(mirror_table_.size(), 0);
      }
    }

    for (auto& node : nodes_) {
      node.pipeline = MakeReadPipeline(node.storage.get(), node.id);
    }

    // RPC wiring. Handlers run in the SENDER's thread (or a transport server
    // thread) under the destination's dispatch lock, possibly while this
    // node's own phase task is running — so they only stage raw bytes or
    // per-requester counters; the paths apply them at the next barrier.
    for (uint32_t i = 0; i < config_.num_nodes; ++i) {
      NodeState* node = &nodes_[i];
      transport_->RegisterHandler(
          i, RpcMethod::kPushMessages, [node](NodeId src, Slice payload, Buffer*) {
            node->push_staged[src].emplace_back(
                payload.data(), payload.data() + payload.size());
            return Status::OK();
          });
      transport_->RegisterHandler(
          i, RpcMethod::kPullRequest,
          [this, node](NodeId src, Slice payload, Buffer* response) {
            // A pull at superstep t fetches the messages PRODUCED at t-1, so
            // only the previous producer path can serve it, and only when
            // that path serves pulls (b-pull, adaptive).
            MessagePath<P>* p = registry_[static_cast<size_t>(prev_produce_)];
            if (!p->caps().serves_pulls) {
              return Status::FailedPrecondition(StringFormat(
                  "pull request, but the previous superstep ran %s, which "
                  "serves no pulls",
                  EngineModeName(prev_produce_)));
            }
            return p->ServePull(*node, src, payload, response);
          });
      transport_->RegisterHandler(
          i, RpcMethod::kPullAdvert, [node](NodeId src, Slice payload, Buffer*) {
            // Stage the advert bytes; the adaptive consume phase turns them
            // into a request mask at the next Phase A barrier.
            node->pull_advert_staged[src].assign(
                payload.data(), payload.data() + payload.size());
            node->pull_advert_valid[src] = 1;
            return Status::OK();
          });
      transport_->RegisterHandler(i, RpcMethod::kControl,
                                  [](NodeId, Slice, Buffer*) {
                                    return Status::OK();
                                  });
    }
    return Status::OK();
  }

  /// The hot-vertex mirror registry, or null when mirroring is off (or the
  /// threshold selected nobody). Immutable after topology build.
  const MirrorTable* mirror_table() const {
    return mirroring_ ? &mirror_table_ : nullptr;
  }

  Transport& transport() { return *transport_; }
  void set_transport(std::unique_ptr<Transport> t) { transport_ = std::move(t); }
  /// A readahead pipeline over `storage` on the shared background-read
  /// pool, tracing its spans under `node`; null when prefetch is off.
  /// Background reads are unmetered; metering happens at the consumption
  /// point, so modeled I/O stays bit-identical with prefetch on or off.
  std::unique_ptr<ReadPipeline> MakeReadPipeline(StorageService* storage,
                                                 NodeId node) {
    if (io_pool_ == nullptr) return nullptr;
    auto pipeline = std::make_unique<ReadPipeline>(
        storage, io_pool_.get(), config_.io.prefetch_depth,
        config_.io.prefetch_budget_bytes);
    pipeline->SetSpanSink([this, node_id = static_cast<int>(node)](
                              const char* name, int superstep, int mode,
                              uint64_t start_us, uint64_t end_us) {
      trace_.AddSteadySpan(name, superstep, node_id, start_us, end_us,
                           static_cast<EngineMode>(mode));
    });
    return pipeline;
  }
  std::vector<NodeState>& nodes() { return nodes_; }
  SuperstepContext& ctx() { return ctx_; }
  double pull_gen_aggregate() const { return pull_gen_aggregate_; }
  const TransportFaultCounters& fault_snapshot() const {
    return fault_snapshot_;
  }
  TraceCollector* trace() { return &trace_; }

 private:
  /// Creates `Path` over this engine and registers it under its mode.
  template <typename Path>
  Path* Install() {
    auto path = std::make_unique<Path>(this);
    Path* raw = path.get();
    registry_[static_cast<size_t>(raw->mode())] = raw;
    paths_.push_back(std::move(path));
    return raw;
  }

  /// Initial mode (Algorithm 3 line 2, Theorem 2) from the nodes' current
  /// frontier and stores; the first superstep consumes in the mode it
  /// produces.
  Status ChooseInitialMode() {
    HG_ASSIGN_OR_RETURN(mode_, DecideInitialMode(config_, nodes_, facts_,
                                                 stats_.load.b_lower_bound));
    prev_produce_ = mode_;
    return Status::OK();
  }

  /// The program's initial values/activity and raw combine shim, for the
  /// compiled topology build and a cold epoch restart.
  BlockTopologyHooks TopologyHooks() {
    BlockTopologyHooks hooks;
    hooks.init_value = [this](VertexId v, uint8_t* out) {
      const Value val = program_.InitValue(v, ctx_);
      PodCodec<Value>::Encode(val, out);
    };
    hooks.init_active = [this](VertexId v) { return program_.InitActive(v); };
    if constexpr (P::kCombinable) hooks.combiner = &ProgramOps<P>::CombineRaw;
    return hooks;
  }

  CheckpointState MakeCheckpointState() {
    CheckpointState st;
    st.superstep = &superstep_;
    st.mode = &mode_;
    st.prev_produce = &prev_produce_;
    st.converged = &converged_;
    st.hybrid = &hybrid_;
    st.prev_aggregate = &ctx_.prev_aggregate;
    for (size_t m = 0; m < kNumEngineModes; ++m) {
      if (registry_[m] != nullptr) st.installed_modes |= 1u << m;
    }
    return st;
  }

  JobConfig config_;
  P program_;
  RangePartition partition_;
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<ThreadPool> pool_;
  /// Dedicated pool for background prefetch reads (null when prefetch is
  /// off). Separate from pool_ because ThreadPool is a single FIFO queue: a
  /// compute task waiting on a queued prefetch task would deadlock at
  /// num_threads=1. Declared before nodes_ and paths_ so it outlives their
  /// ReadPipelines (reverse destruction order), which wait out their
  /// in-flight reads in their destructors.
  std::unique_ptr<ThreadPool> io_pool_;
  /// Width of io_pool_.
  static constexpr uint32_t kPrefetchThreads = 2;
  std::vector<NodeState> nodes_;
  SuperstepContext ctx_;
  TraceCollector trace_;

  int superstep_ = 0;
  bool converged_ = false;
  bool loaded_ = false;
  bool topology_built_ = false;
  PushPolicy push_policy_;

  // Hybrid state: production mode for the upcoming superstep and the one
  // used by the previous superstep (= consumption mode of the upcoming one).
  EngineMode mode_ = EngineMode::kPush;
  EngineMode prev_produce_ = EngineMode::kPush;
  HybridState hybrid_;
  const HybridFacts facts_{P::kCombinable, kMsgSize, kMsgRecordSize,
                           kValueRecordSize};
  /// Aggregate visible to the previous superstep (pullRes() at superstep t
  /// logically produces superstep t-1's messages and must see t-1's view).
  double pull_gen_aggregate_ = 0;

  /// fault_counters() at the start of the current superstep; the superstep's
  /// SuperstepMetrics records the delta.
  TransportFaultCounters fault_snapshot_;

  MirrorTable mirror_table_;
  bool mirroring_ = false;

  JobStats stats_;

  /// The installed paths, in install order, and mode -> path. A mode's slot
  /// is set exactly when config.mode runs that path; kHybrid's stays null
  /// (hybrid is an engine policy over the push and b-pull slots).
  std::vector<std::unique_ptr<MessagePath<P>>> paths_;
  std::array<MessagePath<P>*, kNumEngineModes> registry_{};
  AdaptivePath<P>* adaptive_ = nullptr;  // config.mode == kAdaptive only
};

}  // namespace hybridgraph
