// Shared base for the block-centric MessagePaths (push / pushM / b-pull /
// adaptive / graphhp): one topology build via the engine (which also fixes
// the push policy), the Phase B Vblock update sweep, the one adjacency
// push loop (pushRes()), the one Eblock pull-serve loop (pullRes()), and the
// accounting/promotion plumbing that is identical across the modes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/aggregators.h"
#include "core/message_flow.h"
#include "core/message_path.h"
#include "core/mirror_table.h"
#include "core/superstep_accounting.h"
#include "graph/adjacency_store.h"
#include "graph/ve_block_store.h"
#include "net/message_codec.h"
#include "util/codec.h"

namespace hybridgraph {

template <typename P>
class BlockPathBase : public MessagePath<P> {
 public:
  using Value = typename P::Value;
  using Message = typename P::Message;

  BlockPathBase(Engine<P>* engine, PathCaps caps)
      : MessagePath<P>(caps), engine_(engine) {}

  Status Build(const EdgeListGraph& graph) override {
    return engine_->EnsureBlockTopology(graph);
  }

  void BeginAccounting() override {
    BeginBlockAccounting(engine_->nodes(), engine_->transport());
  }

  Status AfterConsume(uint32_t i) override {
    MergePullServeCounters(engine_->nodes()[i], engine_->config().num_nodes);
    return Status::OK();
  }

  Status UpdateProduce(uint32_t i) override {
    return UpdateVblocks(engine_->nodes()[i]);
  }

  Status AfterProduce(uint32_t i) override {
    // Unconditional for every block producer: under b-pull production the
    // staging is empty and this is a no-op, but the hybrid switch supersteps
    // rely on the drain always running.
    return DrainStagedPushBatches(engine_->nodes()[i],
                                  engine_->config().num_nodes, push_policy());
  }

  SuperstepMetrics EndAccounting(EngineMode produce_mode,
                                 bool switched) override {
    std::vector<NodeState>& nodes = engine_->nodes();
    std::vector<uint64_t> extra(nodes.size(), 0);
    for (size_t i = 0; i < nodes.size(); ++i) {
      extra[i] = ExtraMemoryBytes(nodes[i]);
    }
    BlockAccountingInputs in;
    in.superstep = engine_->superstep();
    in.produce_mode = produce_mode;
    in.switched = switched;
    in.config = &engine_->config();
    in.partition = &engine_->partition();
    in.transport = &engine_->transport();
    in.fault_snapshot = engine_->fault_snapshot();
    in.extra_memory_bytes = &extra;
    return AccumulateBlockMetrics(nodes, in);
  }

  void Promote(uint64_t* responding_total,
               uint64_t* inflight_messages) override {
    PromoteBlockState(engine_->nodes(), responding_total, inflight_messages);
  }

  Result<std::vector<Value>> GatherValues() override {
    const RangePartition& partition = engine_->partition();
    std::vector<Value> out(partition.num_vertices());
    std::vector<uint8_t> values;
    for (auto& node : engine_->nodes()) {
      for (uint32_t vb = partition.FirstVblockOf(node.id);
           vb < partition.LastVblockOf(node.id); ++vb) {
        HG_RETURN_IF_ERROR(
            node.vstore->ReadBlock(vb, &values, IoClass::kSeqRead));
        const VertexRange r = partition.VblockRange(vb);
        for (uint32_t i = 0; i < r.size(); ++i) {
          out[r.begin + i] = PodCodec<Value>::Decode(
              values.data() + static_cast<size_t>(i) * P::kValueSize);
        }
      }
    }
    return out;
  }

 protected:
  // Hooks invoked from the Vblock update sweep. Push production overrides
  // ProduceVblock/FinishProduce; pull production leaves them as no-ops
  // (nothing is sent until next superstep's pulls).

  /// Runs after Vblock `vb`'s global update pass, with the block's values
  /// still in hand and before the write-back and ProduceVblock. May update
  /// more vertices (marking `block_dirty`) and rewrite the respond flags.
  virtual Status AfterVblockUpdate(NodeState& node, uint32_t vb,
                                   std::vector<uint8_t>& respond_in_vb,
                                   std::vector<uint8_t>& values,
                                   bool* block_dirty) {
    (void)node;
    (void)vb;
    (void)respond_in_vb;
    (void)values;
    (void)block_dirty;
    return Status::OK();
  }
  virtual Status ProduceVblock(NodeState& node, uint32_t vb,
                               const std::vector<uint8_t>& respond_in_vb,
                               const std::vector<uint8_t>& block_values) {
    (void)node;
    (void)vb;
    (void)respond_in_vb;
    (void)block_values;
    return Status::OK();
  }
  virtual Status FinishProduce(NodeState& node) {
    (void)node;
    return Status::OK();
  }

  /// update() for vertex `v` against its in-hand Vblock record `slot`: runs
  /// the program, counts the update, folds the aggregator partial and
  /// charges the CPU model. A changed value is re-encoded into `slot` and
  /// marks the block dirty.
  UpdateResult ApplyUpdate(NodeState& node, VertexId v, uint8_t* slot,
                           const std::vector<Message>& msgs,
                           bool* block_dirty) {
    P& program = engine_->program();
    const SuperstepContext& ctx = engine_->ctx();
    const JobConfig& config = engine_->config();
    Value value = PodCodec<Value>::Decode(slot);
    [[maybe_unused]] const Value old_value = value;
    const UpdateResult res = program.Update(v, &value, msgs, ctx);
    ++node.updated_vertices;
    if constexpr (HasAggregator<P>) {
      node.aggregate_partial +=
          program.AggregateContribution(v, old_value, value, ctx);
    }
    node.cpu_seconds +=
        config.cpu.per_vertex_update_s +
        config.cpu.per_message_s * static_cast<double>(msgs.size());
    if (res.changed) {
      PodCodec<Value>::Encode(value, slot);
      *block_dirty = true;
    }
    return res;
  }

  /// pushRes() for one Vblock: reads its adjacency block once and sends
  /// along the out-edges of the responding vertices whose destination passes
  /// `keep(dst)`, with hot-vertex mirroring, optional sender combining
  /// (pushM+com, Appendix E) and threshold flushes. Vertex values are still
  /// in hand from the update pass (compute() in Giraph is one pass), so no
  /// extra value I/O is charged; the whole block is charged as scanned
  /// whatever `keep` filters out.
  template <typename Keep>
  Status PushVblock(NodeState& node, uint32_t vb,
                    const std::vector<uint8_t>& respond_in_vb,
                    const std::vector<uint8_t>& block_values, Keep keep) {
    if (std::find(respond_in_vb.begin(), respond_in_vb.end(), 1) ==
        respond_in_vb.end()) {
      return Status::OK();
    }
    const JobConfig& config = engine_->config();
    const RangePartition& partition = engine_->partition();
    // Stage the next Vblock's adjacency before consuming this one
    // (responding blocks cluster, so the speculative read usually lands);
    // a wrong guess is just dropped from the pipeline later.
    if (node.pipeline && node.pipeline->enabled() &&
        vb + 1 < partition.LastVblockOf(node.id)) {
      node.adj->PrefetchBlock(vb + 1, node.pipeline.get());
    }
    std::vector<uint8_t> block;
    HG_RETURN_IF_ERROR(node.adj->ReadBlock(vb, &block, node.pipeline.get()));
    node.io.adj_edge_bytes += node.adj->BlockBytes(vb);
    node.cpu_seconds +=
        config.cpu.per_edge_s * static_cast<double>(node.adj->BlockEdges(vb));
    node.edges_scanned += node.adj->BlockEdges(vb);

    const VertexRange r = partition.VblockRange(vb);
    std::vector<uint8_t> msg_bytes(P::kMessageSize);
    // Every yielded run is checked (ids in block order, destinations existing
    // vertices); a non-responding vertex's edges are stepped over in place.
    EdgeRunWalker runs = node.adj->Walk(vb, Slice(block));
    for (EdgeRun run; runs.Next(&run);) {
      const uint32_t in_block = run.src - r.begin;
      if (!respond_in_vb[in_block]) continue;
      const Value value = PodCodec<Value>::Decode(
          block_values.data() + static_cast<size_t>(in_block) * P::kValueSize);
      const uint32_t out_degree = node.vstore->OutDegree(run.src);
      for (const Edge e : run.edges) {
        if (!keep(e.dst)) continue;
        const Message m = engine_->program().GenMessage(
            run.src, value, out_degree, e, engine_->ctx());
        ++node.msgs_produced;
        node.cpu_seconds += config.cpu.per_message_s;
        const NodeId dst_node = partition.NodeOf(e.dst);
        PodCodec<Message>::Encode(m, msg_bytes.data());
        // Degree-aware mirroring: sends to a hot vertex fold into the local
        // accumulator and ship once per (node, vertex) at FinishProduce.
        if (MirrorFold(node, e.dst, msg_bytes.data())) continue;
        if (config.push_sender_combining && P::kCombinable) {
          // pushM+com (Appendix E): combine with a message for the same
          // destination still sitting in this staging buffer.
          const bool hit =
              node.staging.TryCombine(dst_node, e.dst, msg_bytes.data());
          node.cpu_seconds += config.cpu.per_combine_s;
          if (hit) {
            ++node.msgs_combined;
            continue;
          }
        }
        node.staging.Append(dst_node, e.dst, msg_bytes.data());
        node.mem_highwater = std::max<uint64_t>(
            node.mem_highwater, node.staging.records(dst_node).bytes().size());
        HG_RETURN_IF_ERROR(FlushStagedMessages(node, engine_->transport(),
                                               dst_node, /*force=*/false,
                                               config.sending_threshold_bytes));
      }
    }
    return runs.status();
  }

  /// Algorithm 2 (Pull-Respond) for the target Vblocks in `payload`, served
  /// from the Eblocks g_{vb, target} of the responding local Vblocks that
  /// pass `keep_cell(vb, target)`. Runs in the requester's thread; all
  /// accounting and scratch live in the per-requester staging slot (merged
  /// after the Phase A barrier) so concurrent pulls to this node never touch
  /// its shared counters. Target ids come off the wire and are rejected
  /// unless they name an existing Vblock; the Eblock walker checks every
  /// run against its cell before it indexes anything.
  template <typename KeepCell>
  Status ServePullCells(NodeState& node, NodeId requester, Slice payload,
                        Buffer* response, KeepCell keep_cell) {
    NodeState::PullServe& serve = node.pull_serve[requester];
    const JobConfig& config = engine_->config();
    const RangePartition& partition = engine_->partition();
    // Legacy payload = one target Vblock; the deduped request–respond form
    // batches every target into one round trip, answered by one combined
    // grouped batch (targets have disjoint destination ranges, so the group
    // lists concatenate safely).
    HG_RETURN_IF_ERROR(DecodePullRequestTargets(payload, &serve.targets));
    for (const uint32_t target_vb : serve.targets) {
      if (target_vb >= partition.num_vblocks()) {
        return Status::InvalidArgument("pull request for unknown Vblock");
      }
    }

    // pullRes() generates the messages that push's pushRes() would have sent
    // at the previous superstep, so it runs under that superstep's context
    // (same GenMessage inputs either way — programs stay mode-agnostic).
    SuperstepContext gen_ctx = engine_->ctx();
    gen_ctx.superstep = gen_ctx.superstep - 1;
    gen_ctx.prev_aggregate = engine_->pull_gen_aggregate();

    // Sending buffer BS, grouped per destination vertex in first-arrival
    // order: one slot per group when combining, else scan-order payloads.
    GroupedBatchWriter& bs = serve.bs;
    bs.Reset(P::kMessageSize);
    const bool combine = P::kCombinable && config.bpull_combining;
    const size_t record_size = node.vstore->record_size();
    uint64_t produced = 0;
    uint64_t combined_away = 0;

    const uint32_t first_vb = partition.FirstVblockOf(node.id);
    const uint32_t last_vb = partition.LastVblockOf(node.id);
    std::vector<uint32_t>& candidates = serve.candidates;
    VeBlockStore::ScanResult scan;
    for (const uint32_t target_vb : serve.targets) {
      const VertexRange dst_range = partition.VblockRange(target_vb);
      serve.group_of.assign(dst_range.size(), -1);

      // Step 1-2: X_j.res and the bitmap gate the Eblock scan. The candidate
      // list is known up front, so the pipeline stays one Eblock ahead of
      // the scan below.
      candidates.clear();
      for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
        if (!node.vblock_res[vb - first_vb]) continue;
        if (!node.ve->HasEdges(vb, target_vb)) continue;
        if (!keep_cell(vb, target_vb)) continue;
        candidates.push_back(vb);
      }
      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        const uint32_t vb = candidates[ci];
        if (ci + 1 < candidates.size() && node.pipeline) {
          node.ve->PrefetchEblock(candidates[ci + 1], target_vb,
                                  node.pipeline.get());
        }

        HG_RETURN_IF_ERROR(
            node.ve->ScanEblock(vb, target_vb, &scan, node.pipeline.get()));
        serve.io.eblock_edge_bytes += scan.edge_bytes;
        serve.io.fragment_aux_bytes += scan.aux_bytes;
        // Decoding scans the whole Eblock, useless edges included (Appendix
        // C: small V means big Eblocks whose extra edges waste
        // bandwidth/CPU).
        serve.cpu_seconds +=
            config.cpu.per_edge_s *
            static_cast<double>(node.ve->Index(vb, target_vb).num_edges);
        serve.edges += node.ve->Index(vb, target_vb).num_edges;

        // IO(V_rr): one unmetered ranged read of the responding source span
        // of Vblock vb serves the Eblock; the model is still charged one
        // random record read per responding fragment. Both passes walk the
        // same bytes; the walker has checked a run against the cell before
        // it yields it.
        uint64_t responding = 0;
        VertexId lo = scan.src.end;
        VertexId hi = scan.src.begin;
        EdgeRunWalker runs = scan.Walk();
        for (EdgeRun run; runs.Next(&run);) {
          if (!node.responding[node.LocalIdx(run.src)]) continue;
          ++responding;
          lo = std::min(lo, run.src);
          hi = std::max(hi, run.src);
        }
        HG_RETURN_IF_ERROR(runs.status());
        if (responding == 0) continue;
        HG_RETURN_IF_ERROR(
            node.vstore->ReadRecordSpan(lo, hi, responding, &serve.records));
        serve.io.vrr_bytes += responding * record_size;

        runs = scan.Walk();
        for (EdgeRun run; runs.Next(&run);) {
          if (!node.responding[node.LocalIdx(run.src)]) continue;
          const Value value = PodCodec<Value>::Decode(
              serve.records.data() + (run.src - lo) * record_size + 8);
          const uint32_t out_degree = node.vstore->OutDegree(run.src);

          for (const Edge e : run.edges) {
            const Message m = engine_->program().GenMessage(
                run.src, value, out_degree, e, gen_ctx);
            ++produced;
            serve.cpu_seconds += config.cpu.per_message_s;
            int64_t& gi = serve.group_of[e.dst - dst_range.begin];
            if (gi >= 0 && combine) {
              // Combine into the group's single slot.
              uint8_t* slot = bs.slot_of(static_cast<uint32_t>(gi));
              PodCodec<Message>::Encode(
                  P::Combine(PodCodec<Message>::Decode(slot), m), slot);
              ++combined_away;
              continue;
            }
            if (gi < 0) {
              gi = bs.AddGroup(e.dst);
            } else {
              ++combined_away;  // concatenation: shares the dst id on wire
            }
            PodCodec<Message>::Encode(m, bs.Append(static_cast<uint32_t>(gi)));
          }
        }
      }
    }

    serve.msgs_produced += produced;
    serve.msgs_combined += combined_away;
    serve.msgs_wire += produced - combined_away;
    // BS memory accounting: grouped batch bytes staged before transfer.
    const size_t before = response->size();
    bs.EncodeTo(response);
    const uint64_t bs_bytes = response->size() - before;
    serve.bs_highwater = std::max(serve.bs_highwater, bs_bytes);
    // Flow control: the batch ships in threshold-sized packages, one in
    // flight.
    serve.flushes +=
        bs_bytes == 0
            ? 0
            : (bs_bytes + config.sending_threshold_bytes - 1) /
                  std::max<uint64_t>(1, config.sending_threshold_bytes);
    return Status::OK();
  }

  /// Next superstep's Pull-Requests will scan the Eblocks of responding
  /// local Vblocks (vblock_res_next promotes to vblock_res at the barrier).
  /// Stages the first few cells passing `keep_cell(vb, target)` in ascending
  /// (target, source) order — the order requesters walk their target
  /// Vblocks — capped at the pipeline depth so the warmup never evicts
  /// itself. Observability only — nothing modeled moves.
  template <typename KeepCell>
  void WarmupPullEblocks(NodeState& node, KeepCell keep_cell) {
    const RangePartition& partition = engine_->partition();
    const uint32_t first_vb = partition.FirstVblockOf(node.id);
    const uint32_t last_vb = partition.LastVblockOf(node.id);
    const uint32_t depth = engine_->config().io.prefetch_depth;
    uint32_t scheduled = 0;
    for (uint32_t target_vb = 0;
         target_vb < partition.num_vblocks() && scheduled < depth;
         ++target_vb) {
      for (uint32_t vb = first_vb; vb < last_vb && scheduled < depth; ++vb) {
        if (!node.vblock_res_next[vb - first_vb]) continue;
        if (!node.ve->HasEdges(vb, target_vb)) continue;
        if (!keep_cell(vb, target_vb)) continue;
        node.ve->PrefetchEblock(vb, target_vb, node.pipeline.get());
        ++scheduled;
      }
    }
  }

  /// Degree-aware vertex mirroring, produce side: folds one generated
  /// message into the sender-local accumulator slot when `dst` is hot.
  /// Returns true when the message was absorbed (caller skips staging).
  /// Slot combines reuse the program combiner, so the drained value equals
  /// the receive-side fold of the individual messages in scan order.
  bool MirrorFold(NodeState& node, VertexId dst, const uint8_t* msg_bytes) {
    const MirrorTable* mirrors = engine_->mirror_table();
    if (mirrors == nullptr) return false;
    const int64_t slot = mirrors->SlotOf(dst);
    if (slot < 0) return false;
    uint8_t* acc = node.mirror_acc.data() +
                   static_cast<size_t>(slot) * P::kMessageSize;
    if (node.mirror_has[static_cast<size_t>(slot)]) {
      ProgramOps<P>::CombineRaw(acc, msg_bytes);
      ++node.msgs_combined;
      node.cpu_seconds += engine_->config().cpu.per_combine_s;
    } else {
      std::memcpy(acc, msg_bytes, P::kMessageSize);
      node.mirror_has[static_cast<size_t>(slot)] = 1;
    }
    return true;
  }

  /// Stages the folded mirror accumulators (ascending slot, i.e. ascending
  /// vertex id) for their owner nodes, so every hot vertex ships at most one
  /// record per sender.
  void DrainMirrors(NodeState& node) {
    const MirrorTable* mirrors = engine_->mirror_table();
    if (mirrors == nullptr) return;
    const RangePartition& partition = engine_->partition();
    for (size_t slot = 0; slot < mirrors->size(); ++slot) {
      if (!node.mirror_has[slot]) continue;
      const VertexId vid = mirrors->VidOf(slot);
      const uint8_t* acc = node.mirror_acc.data() + slot * P::kMessageSize;
      const NodeId dst_node = partition.NodeOf(vid);
      node.staging.Append(dst_node, vid, acc);
      node.mem_highwater = std::max<uint64_t>(
          node.mem_highwater, node.staging.records(dst_node).bytes().size());
      node.mirror_has[slot] = 0;
    }
  }

  /// Path-specific modeled-memory buffer bytes on top of mem_highwater
  /// (push family: pending inbox + moc accumulator slots; b-pull: nothing).
  virtual uint64_t ExtraMemoryBytes(const NodeState& node) const {
    (void)node;
    return 0;
  }

  /// The b-pull collect policy (one Pull-Request per local Vblock, or one
  /// batched request per node pair under dedup).
  BPullCollectPolicy PullCollectPolicy() const {
    const JobConfig& config = engine_->config();
    BPullCollectPolicy policy;
    policy.msg_size = P::kMessageSize;
    policy.prepull_double = config.pre_pull && P::kCombinable;
    policy.num_nodes = config.num_nodes;
    policy.dedup_requests = config.request_respond_dedup;
    return policy;
  }

  const PushPolicy& push_policy() const { return engine_->push_policy(); }

  Engine<P>* engine_;

 private:
  /// The shared Phase B vertex-update sweep over one node's Vblocks
  /// (update() + setResFlag); production is delegated to the
  /// AfterVblockUpdate/ProduceVblock/FinishProduce hooks so this loop stays
  /// mode-free.
  Status UpdateVblocks(NodeState& node) {
    std::fill(node.responding_next.begin(), node.responding_next.end(), 0);
    std::fill(node.vblock_res_next.begin(), node.vblock_res_next.end(), 0);

    const RangePartition& partition = engine_->partition();
    const int superstep = engine_->superstep();
    const uint32_t first_vb = partition.FirstVblockOf(node.id);
    const uint32_t last_vb = partition.LastVblockOf(node.id);
    const std::vector<Message> no_msgs;
    std::vector<Message> msg_scratch;
    std::vector<uint8_t> values;
    std::vector<uint8_t> respond_in_vb;

    // Precompute which Vblocks will be read this sweep, so the pipeline can
    // stay one block ahead of the scan. Safe to hoist: the flags any_active
    // reads (pending, active) are only mutated for vertices inside the same
    // Vblock, after that block's own flag was computed.
    std::vector<uint8_t> vb_active(last_vb - first_vb, 0);
    for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
      const VertexRange r = partition.VblockRange(vb);
      for (VertexId v = r.begin; v < r.end; ++v) {
        const uint32_t li = node.LocalIdx(v);
        const bool a = P::kAlwaysActive
                           ? (superstep > 0 || node.active[li])
                           : (node.pending.Has(li) || node.active[li]);
        if (a) {
          vb_active[vb - first_vb] = 1;
          break;
        }
      }
    }
    auto prefetch_next_vblock = [&](uint32_t after_vb) {
      if (!node.pipeline || !node.pipeline->enabled()) return;
      for (uint32_t nvb = after_vb + 1; nvb < last_vb; ++nvb) {
        if (vb_active[nvb - first_vb]) {
          node.vstore->PrefetchBlock(nvb, node.pipeline.get(),
                                     IoClass::kSeqRead);
          return;
        }
      }
    };

    for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
      const VertexRange r = partition.VblockRange(vb);
      const bool any_active = vb_active[vb - first_vb] != 0;
      respond_in_vb.assign(r.size(), 0);
      if (any_active) {
        // Stage the following active Vblock before consuming this one, so
        // its read overlaps this block's update work.
        prefetch_next_vblock(vb);
        // IO(V^t): scan + write back the Vblock.
        HG_RETURN_IF_ERROR(node.vstore->ReadBlock(
            vb, &values, IoClass::kSeqRead, node.pipeline.get()));
        node.io.vt_bytes += node.vstore->BlockBytes(vb);
        bool block_dirty = false;

        for (VertexId v = r.begin; v < r.end; ++v) {
          const uint32_t li = node.LocalIdx(v);
          const bool has_msgs = node.pending.Has(li);
          const bool run_update =
              P::kAlwaysActive ? (superstep > 0 || node.active[li])
                               : (has_msgs || node.active[li]);
          if (!run_update) continue;

          if (has_msgs) {
            msg_scratch.clear();
            const size_t count = node.pending.CountAt(li);
            const uint8_t* data = node.pending.DataAt(li);
            for (size_t k = 0; k < count; ++k) {
              msg_scratch.push_back(
                  PodCodec<Message>::Decode(data + k * P::kMessageSize));
            }
          }
          const UpdateResult res = ApplyUpdate(
              node, v,
              values.data() + static_cast<size_t>(v - r.begin) * P::kValueSize,
              has_msgs ? msg_scratch : no_msgs, &block_dirty);
          if (res.respond) {
            node.responding_next[li] = 1;
            node.vblock_res_next[vb - first_vb] = 1;
            respond_in_vb[v - r.begin] = 1;
          }
          // Consume messages.
          if (has_msgs) node.pending.ConsumeAt(li);
          node.active[li] = 0;
        }
        HG_RETURN_IF_ERROR(AfterVblockUpdate(node, vb, respond_in_vb, values,
                                             &block_dirty));
        if (block_dirty) {
          HG_RETURN_IF_ERROR(
              node.vstore->WriteBlock(vb, values, IoClass::kSeqWrite));
          node.io.vt_bytes += node.vstore->BlockBytes(vb);
        }
      }
      HG_RETURN_IF_ERROR(ProduceVblock(node, vb, respond_in_vb, values));
    }
    return FinishProduce(node);
  }
};

}  // namespace hybridgraph
