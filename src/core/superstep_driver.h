// The mode-agnostic superstep driver: owns the BSP loop, the thread-pool
// phase barriers, the aggregator exchange, hybrid switching (Eq. 11) and
// checkpointing, and delegates everything mode-specific to the installed
// MessagePath strategies.
//
// Execution model per superstep t (uniform across modes):
//   Phase A (consume)  — every node collects the messages addressed to its
//     vertices, via the path that PRODUCED them at t-1 (consumption mode at
//     t = production mode at t-1, which is what makes hybrid switching a
//     pure mode-registry lookup).
//   Phase B (update + produce) — every node updates its vertices and lets
//     the current production path ship/stage whatever its mode ships.
//
// Phase A of all nodes runs before any Phase B, which gives the BSP
// semantics (pull always observes superstep t-1 values) without vertex
// value versioning. Each phase is wrapped in trace spans (cluster-wide and
// per node) that export to chrome://tracing when config.trace_path is set.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <set>
#include <vector>

#include "core/aggregators.h"
#include "core/engine_checkpoint.h"
#include "core/engine_setup.h"
#include "core/hybrid_switch.h"
#include "core/job_config.h"
#include "core/message_path.h"
#include "core/mirror_table.h"
#include "core/node_state.h"
#include "core/program.h"
#include "core/run_metrics.h"
#include "core/superstep_accounting.h"
#include "core/trace.h"
#include "graph/edge_delta.h"
#include "graph/edge_list.h"
#include "graph/partition.h"
#include "net/message_codec.h"
#include "net/transport.h"
#include "util/buffer.h"
#include "util/codec.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace hybridgraph {

template <typename P>
class SuperstepDriver {
 public:
  using Value = typename P::Value;
  using Message = typename P::Message;

  static constexpr size_t kMsgSize = P::kMessageSize;
  /// Wire/spill record: destination id + message payload.
  static constexpr size_t kMsgRecordSize = 4 + kMsgSize;
  /// Vertex value record on disk (id + out-degree + payload).
  static constexpr size_t kValueRecordSize = 8 + P::kValueSize;

  SuperstepDriver(JobConfig config, P program)
      : config_(std::move(config)), program_(std::move(program)) {}

  /// Registers `path` under its mode. `active` paths are Build()t at Load
  /// time and may produce; inactive ones only occupy their registry slot
  /// (never reached because the mode never resolves to them).
  void InstallPath(MessagePath<P>* path, bool active) {
    registry_[static_cast<size_t>(path->mode())] = path;
    if (active) build_order_.push_back(path);
  }

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
      io_pool_ = std::make_unique<ThreadPool>(config_.io.prefetch_threads);
    }
    total_edges_ = graph.num_edges();
    FoldCpuScale(&config_);
    ctx_.num_vertices = graph.num_vertices;
    ctx_.superstep = 0;
    if (!config_.trace_path.empty()) trace_.Enable();

    for (MessagePath<P>* path : build_order_) {
      HG_RETURN_IF_ERROR(path->Build(graph));
    }

    HG_RETURN_IF_ERROR(ChooseInitialMode());
    loaded_ = true;
    return Status::OK();
  }

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

  // --------------------------------------------------- block-engine services

  /// Builds the shared block-centric topology (partition, stores, flags,
  /// inboxes, RPC wiring) the first time a block path asks for it; later
  /// calls are no-ops so push and b-pull share one build under hybrid.
  Status EnsureBlockTopology(const EdgeListGraph& graph) {
    if (topology_built_) return Status::OK();
    topology_built_ = true;

    bool need_adj = false;
    bool need_ve = false;
    bool any_mirrors = false;
    for (MessagePath<P>* path : build_order_) {
      need_adj = need_adj || path->caps().needs_adjacency;
      need_ve = need_ve || path->caps().needs_veblocks;
      any_mirrors = any_mirrors || path->caps().mirrors_hot_vertices;
    }

    BlockTopologyHooks hooks;
    hooks.init_value = [this](VertexId v, uint8_t* out) {
      const Value val = program_.InitValue(v, ctx_);
      PodCodec<Value>::Encode(val, out);
    };
    hooks.init_active = [this](VertexId v) { return program_.InitActive(v); };
    if constexpr (P::kCombinable) {
      hooks.pending_combiner = &ProgramOps<P>::CombineRaw;
      hooks.staging_combiner = &ProgramOps<P>::CombineRaw;
      if (config_.io.spill_combining) {
        hooks.spill_combiner = &ProgramOps<P>::CombineRaw;
      }
    }

    BlockTopologyCensus census;
    HG_RETURN_IF_ERROR(BuildBlockTopology(
        graph, config_, P::kCombinable, P::kValueSize, kMsgSize, need_adj,
        need_ve, hooks, &partition_, &transport_, &nodes_, total_edges_,
        &stats_.load, &census));
    // Degree-aware vertex mirroring: hot set from the global in-degree
    // distribution, one accumulator slot per (node, hot vertex). Only built
    // when a registered producer folds mirrors (push family / adaptive);
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

    total_in_degree_ = census.total_in_degree;
    total_fragments_ = census.total_fragments;
    initial_messages_ = census.initial_messages;
    initial_active_frac_ = static_cast<double>(census.initial_active_count) /
                           static_cast<double>(graph.num_vertices);

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
            // it is served by the previous producer path when that path
            // serves pulls (adaptive), else by the b-pull slot (the only
            // other server; push producers never trigger pulls).
            MessagePath<P>* p = registry_[static_cast<size_t>(prev_produce_)];
            if (p == nullptr || !p->caps().serves_pulls) {
              p = registry_[static_cast<size_t>(EngineMode::kBPull)];
            }
            if (p == nullptr) return Status::Internal("no pull path installed");
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

  /// Collects all vertex values (global, indexed by vertex id) from the
  /// first active path; every active path of a mode reads the same stores.
  Result<std::vector<Value>> GatherValues() {
    if (build_order_.empty()) {
      return Status::FailedPrecondition("no active path installed");
    }
    return build_order_.front()->GatherValues();
  }

  Status WriteCheckpoint(Buffer* out) {
    if (!loaded_) return Status::FailedPrecondition("Load() first");
    if (!topology_built_) {
      return Status::FailedPrecondition(
          "checkpoints require a block-centric topology");
    }
    return WriteEngineCheckpoint(nodes_, partition_, MakeCheckpointState(),
                                 kMsgSize, out);
  }

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
    return RestoreEngineCheckpoint(nodes_, partition_, config_,
                                   MakeCheckpointState(), kMsgSize, data,
                                   &stats_.supersteps_run);
  }

  // ------------------------------------------------ streaming epoch services
  //
  // The epoch driver (core/epoch_driver.h) mutates the loaded topology
  // between converged runs: ApplyEdgeBatch patches every store layer,
  // SeedEpochActives / SeedAllActives / ReinitEpochState choose the frontier,
  // StartEpoch rewinds the BSP state, then the normal Run() loop reconverges.
  // All of it runs on the driver thread and uses only metered store
  // operations, so modeled metrics stay bit-identical across thread counts.

  /// Applies one edge batch to the mutable stores of every owning node: the
  /// VE-BLOCK overlay gains delta runs (in-degree metadata routed to the
  /// destination owners), adjacency blocks are rewritten, and out-degrees
  /// are patched in memory plus refreshed in the touched on-disk Vblock
  /// records (pull serves decode the degree from those records). `touched`
  /// (optional) receives the batch's endpoint set for frontier seeding.
  Status ApplyEdgeBatch(const EdgeBatch& batch,
                        std::vector<VertexId>* touched) {
    if (!loaded_ || !topology_built_) {
      return Status::FailedPrecondition(
          "streaming requires a loaded block-centric topology");
    }
    HG_RETURN_IF_ERROR(ValidateBatch(ctx_.num_vertices, batch));
    // In-flight readahead was issued against pre-batch bytes; cancel it all.
    // (The store writes below also invalidate matching staged reads via the
    // storage mutation observers — this is the belt to that suspender.)
    for (auto& node : nodes_) {
      if (node.pipeline) node.pipeline->CancelAll();
    }

    std::vector<std::vector<EdgeDelta>> per_node(config_.num_nodes);
    for (const auto& d : batch.deltas) {
      per_node[partition_.NodeOf(d.src)].push_back(d);
    }
    DegreeDeltaMap in_deg;    // global, keyed by destination vertex
    DegreeDeltaMap cross_in;  // global, cross-Vblock share of in_deg
    int64_t net_edges = 0;
    for (uint32_t i = 0; i < config_.num_nodes; ++i) {
      if (per_node[i].empty()) continue;
      NodeState& node = nodes_[i];
      DegreeDeltaMap out_deg;
      // The overlay is the out-degree source of truth when both stores are
      // built (they apply identical merge semantics, so the deltas agree).
      if (node.ve != nullptr) {
        HG_RETURN_IF_ERROR(
            node.ve->ApplyBatch(per_node[i], &out_deg, &in_deg, &cross_in));
        if (node.adj != nullptr) {
          HG_RETURN_IF_ERROR(node.adj->ApplyBatch(per_node[i], nullptr));
        }
      } else if (node.adj != nullptr) {
        HG_RETURN_IF_ERROR(node.adj->ApplyBatch(per_node[i], &out_deg));
        for (const auto& d : per_node[i]) {
          if (!d.is_delete) in_deg[d.dst] += 1;
        }
      } else {
        return Status::FailedPrecondition("no mutable edge store on node");
      }
      std::set<uint32_t> touched_vbs;
      for (const auto& [v, dd] : out_deg) {
        net_edges += dd;
        node.vstore->AdjustOutDegree(v, dd);
        touched_vbs.insert(partition_.VblockOf(v));
      }
      // Refresh the on-disk records of the touched Vblocks (WriteBlock
      // re-encodes the degree field from the memory copy just patched).
      std::vector<uint8_t> values;
      for (uint32_t vb : touched_vbs) {
        HG_RETURN_IF_ERROR(
            node.vstore->ReadBlock(vb, &values, IoClass::kSeqRead));
        HG_RETURN_IF_ERROR(
            node.vstore->WriteBlock(vb, values, IoClass::kSeqWrite));
      }
    }
    for (const auto& [v, dd] : in_deg) {
      NodeState& owner = nodes_[partition_.NodeOf(v)];
      if (owner.ve != nullptr) {
        owner.ve->AdjustInDegree(partition_.VblockOf(v), dd);
      }
    }
    // Cross-Vblock in-edge deltas reach the destination owner's overlay so
    // boundary/inner classification stays exact under remote-source deltas.
    for (const auto& [v, dd] : cross_in) {
      NodeState& owner = nodes_[partition_.NodeOf(v)];
      if (owner.ve != nullptr) owner.ve->AdjustCrossIn(v, dd);
    }
    // Refresh the census the next initial-mode decision reads.
    uint64_t fragments = 0;
    bool any_ve = false;
    for (auto& node : nodes_) {
      if (node.ve != nullptr) {
        any_ve = true;
        fragments += node.ve->TotalFragments();
      }
    }
    if (any_ve) total_fragments_ = fragments;
    total_edges_ =
        static_cast<uint64_t>(static_cast<int64_t>(total_edges_) + net_edges);
    if (touched != nullptr) {
      std::set<VertexId> touched_set;
      for (const auto& d : batch.deltas) {
        touched_set.insert(d.src);
        touched_set.insert(d.dst);
      }
      touched->assign(touched_set.begin(), touched_set.end());
    }
    return Status::OK();
  }

  /// Clears every active flag, then activates exactly `touched`; refreshes
  /// the frontier census (initial messages / active fraction) the epoch's
  /// initial-mode decision reads.
  void SeedEpochActives(const std::vector<VertexId>& touched) {
    for (auto& node : nodes_) {
      std::fill(node.active.begin(), node.active.end(), 0);
    }
    uint64_t seeded = 0;
    uint64_t msgs = 0;
    for (VertexId v : touched) {
      NodeState& node = nodes_[partition_.NodeOf(v)];
      uint8_t& slot = node.active[node.LocalIdx(v)];
      if (slot == 0) {
        slot = 1;
        ++seeded;
        msgs += node.vstore->OutDegree(v);
      }
    }
    initial_messages_ = msgs;
    initial_active_frac_ =
        static_cast<double>(seeded) / static_cast<double>(ctx_.num_vertices);
  }

  /// Activates every vertex: Always-Active programs reconverge from the
  /// whole graph on a warm restart (superstep 0 re-announces all values).
  void SeedAllActives() {
    uint64_t msgs = 0;
    for (auto& node : nodes_) {
      std::fill(node.active.begin(), node.active.end(), 1);
      for (VertexId v = node.range.begin; v < node.range.end; ++v) {
        msgs += node.vstore->OutDegree(v);
      }
    }
    initial_messages_ = msgs;
    initial_active_frac_ = 1.0;
  }

  /// Cold restart inside the loaded engine: rewrites every Vblock to
  /// InitValue and re-seeds InitActive. Used when a batch deleted edges and
  /// the program is monotone — the converged values are no longer a valid
  /// starting point, so the epoch recomputes from scratch (still over the
  /// mutated stores).
  Status ReinitEpochState() {
    ctx_.superstep = 0;
    uint64_t seeded = 0;
    uint64_t msgs = 0;
    std::vector<uint8_t> values;
    for (auto& node : nodes_) {
      for (uint32_t vb = partition_.FirstVblockOf(node.id);
           vb < partition_.LastVblockOf(node.id); ++vb) {
        const VertexRange r = partition_.VblockRange(vb);
        values.assign(static_cast<size_t>(r.size()) * P::kValueSize, 0);
        for (VertexId v = r.begin; v < r.end; ++v) {
          const Value val = program_.InitValue(v, ctx_);
          PodCodec<Value>::Encode(
              val, values.data() +
                       static_cast<size_t>(v - r.begin) * P::kValueSize);
        }
        HG_RETURN_IF_ERROR(
            node.vstore->WriteBlock(vb, values, IoClass::kSeqWrite));
      }
      for (VertexId v = node.range.begin; v < node.range.end; ++v) {
        const bool a = program_.InitActive(v);
        node.active[node.LocalIdx(v)] = a ? 1 : 0;
        if (a) {
          ++seeded;
          msgs += node.vstore->OutDegree(v);
        }
      }
    }
    initial_messages_ = msgs;
    initial_active_frac_ =
        static_cast<double>(seeded) / static_cast<double>(ctx_.num_vertices);
    return Status::OK();
  }

  /// Rewinds the BSP state for a new epoch: superstep 0, no leftover
  /// messages/flags/accumulators, fresh hybrid and aggregator state, and a
  /// fresh initial-mode decision from the refreshed census. `warm` keeps the
  /// converged values as the starting point (ctx.warm_restart lets seeded
  /// traversal vertices respond at superstep 0). Call after the stores and
  /// active seeds are in their epoch-start state.
  Status StartEpoch(bool warm) {
    if (!loaded_) return Status::FailedPrecondition("Load() first");
    superstep_ = 0;
    converged_ = false;
    hybrid_ = HybridState{};
    ctx_.superstep = 0;
    ctx_.prev_aggregate = 0;
    ctx_.warm_restart = warm;
    pull_gen_aggregate_ = 0;
    for (auto& node : nodes_) {
      std::fill(node.responding.begin(), node.responding.end(), 0);
      std::fill(node.responding_next.begin(), node.responding_next.end(), 0);
      std::fill(node.vblock_res.begin(), node.vblock_res.end(), 0);
      std::fill(node.vblock_res_next.begin(), node.vblock_res_next.end(), 0);
      // An aggregator halt can leave produced-but-unconsumed messages in the
      // promoted inbox; a new epoch starts clean.
      node.inbox_cur.ClearMem();
      node.inbox_next.ClearMem();
      node.inbox_cur.total = node.inbox_cur.spilled = 0;
      node.inbox_next.total = node.inbox_next.spilled = 0;
      if (node.inbox_cur.spill() != nullptr) {
        HG_RETURN_IF_ERROR(node.inbox_cur.spill()->Clear());
      }
      if (node.inbox_next.spill() != nullptr) {
        HG_RETURN_IF_ERROR(node.inbox_next.spill()->Clear());
      }
      for (uint32_t li = 0; li < node.range.size(); ++li) {
        if (node.pending.Has(li)) node.pending.ConsumeAt(li);
      }
      node.pending.ResetCount();
      std::fill(node.moc_acc.begin(), node.moc_acc.end(), 0);
      std::fill(node.moc_has.begin(), node.moc_has.end(), 0);
      std::fill(node.mirror_acc.begin(), node.mirror_acc.end(), 0);
      std::fill(node.mirror_has.begin(), node.mirror_has.end(), 0);
      for (auto& staged : node.push_staged) staged.clear();
      std::fill(node.pull_advert_valid.begin(), node.pull_advert_valid.end(),
                0);
    }
    return ChooseInitialMode();
  }

  // ---------------------------------------------------------------- access

  const JobStats& stats() const { return stats_; }
  JobStats* mutable_stats() { return &stats_; }
  const RangePartition& partition() const { return partition_; }
  const JobConfig& config() const { return config_; }
  P& program() { return program_; }
  bool converged() const { return converged_; }
  int superstep() const { return superstep_; }
  EngineMode current_mode() const { return mode_; }
  uint64_t total_fragments() const { return total_fragments_; }
  uint64_t b_lower_bound() const { return stats_.load.b_lower_bound; }

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
  /// Initial mode (Algorithm 3 line 2, Theorem 2) from the current census;
  /// the first superstep consumes in the mode it produces.
  Status ChooseInitialMode() {
    InitialModeInputs in;
    in.b_lower_bound = stats_.load.b_lower_bound;
    in.initial_messages = initial_messages_;
    in.initial_active_frac = initial_active_frac_;
    in.total_fragments = total_fragments_;
    HG_ASSIGN_OR_RETURN(mode_, DecideInitialMode(config_, nodes_, facts_, in));
    prev_produce_ = mode_;
    return Status::OK();
  }

  CheckpointState MakeCheckpointState() {
    CheckpointState st;
    st.superstep = &superstep_;
    st.mode = &mode_;
    st.prev_produce = &prev_produce_;
    st.converged = &converged_;
    st.hybrid = &hybrid_;
    st.prev_aggregate = &ctx_.prev_aggregate;
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
  /// num_threads=1. Declared before nodes_ so it outlives the per-node
  /// ReadPipelines (reverse destruction order), which wait out their
  /// in-flight reads in their destructors.
  std::unique_ptr<ThreadPool> io_pool_;
  std::vector<NodeState> nodes_;
  SuperstepContext ctx_;
  TraceCollector trace_;

  int superstep_ = 0;
  bool converged_ = false;
  bool loaded_ = false;
  bool topology_built_ = false;

  // Hybrid state: production mode for the upcoming superstep and the one
  // used by the previous superstep (= consumption mode of the upcoming one).
  EngineMode mode_ = EngineMode::kPush;
  EngineMode prev_produce_ = EngineMode::kPush;
  HybridState hybrid_;
  const HybridFacts facts_{P::kCombinable, kMsgSize, kMsgRecordSize,
                           kValueRecordSize, LocallyIterable<P>};
  /// Aggregate visible to the previous superstep (pullRes() at superstep t
  /// logically produces superstep t-1's messages and must see t-1's view).
  double pull_gen_aggregate_ = 0;

  /// fault_counters() at the start of the current superstep; the superstep's
  /// SuperstepMetrics records the delta.
  TransportFaultCounters fault_snapshot_;

  MirrorTable mirror_table_;
  bool mirroring_ = false;

  uint64_t total_edges_ = 0;
  uint64_t total_fragments_ = 0;
  uint64_t total_in_degree_ = 0;
  uint64_t initial_messages_ = 0;  ///< sum out-degrees of InitActive vertices
  double initial_active_frac_ = 0;  ///< |InitActive| / |V|

  JobStats stats_;

  /// Mode -> strategy. Indexed by EngineMode; kHybrid's slot stays null
  /// (hybrid is a driver policy, not a path).
  std::array<MessagePath<P>*, kNumEngineModes> registry_{};
  std::vector<MessagePath<P>*> build_order_;
};

}  // namespace hybridgraph
