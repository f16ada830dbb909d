// The GraphHP MessagePath (EngineMode::kGraphHp): push production with
// intra-block asynchrony in the style of GraphHP (arXiv:1706.07221).
//
// The Phase B sweep runs each Vblock's *inner* vertices (every edge inside
// the Vblock) to local convergence in memory right after the global update
// pass — see AfterVblockUpdate below — so only boundary traffic crosses the
// barrier, through the unchanged push staging / flush / inbox machinery.
// Both mode-specific halves are gated on the program's locally-iterable
// trait (monotone idempotent folds like SSSP/BFS/WCC); for any other program
// (PageRank's sum) this path behaves EXACTLY like PushPath — same messages,
// same bytes, same supersteps:
//
//   * AfterVblockUpdate runs the local sub-iterations;
//   * ProduceVblock skips intra-Vblock edges: their messages were delivered
//     in memory or carried into the inbox already; producing them again
//     would double-deliver.
//
// Everything else — Consume, warmup, flush, accounting, mirrors — is
// inherited from PushPath unchanged, which is what keeps the differential
// guarantee cheap to believe: the wire protocol and consume side are
// literally the push code.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "core/paths/push_path.h"
#include "core/trace.h"
#include "graph/edge_runs.h"
#include "util/failpoint.h"
#include "util/record_slab.h"

namespace hybridgraph {

template <typename P>
class GhpPath : public PushPath<P> {
 public:
  using Value = typename P::Value;
  using Message = typename P::Message;

  /// The boundary/inner split and the inner-adjacency sidecar live in the
  /// VE-BLOCK store.
  explicit GhpPath(Engine<P>* engine)
      : PushPath<P>(engine, {.needs_adjacency = true,
                             .needs_veblocks = true,
                             .mirrors_hot_vertices = true}) {}

  EngineMode mode() const override { return EngineMode::kGraphHp; }

 protected:
  Status ProduceVblock(NodeState& node, uint32_t vb,
                       const std::vector<uint8_t>& respond_in_vb,
                       const std::vector<uint8_t>& block_values) override {
    if constexpr (!LocallyIterable<P>) {
      // No sub-iterations ran: plain push, bit-for-bit.
      return PushPath<P>::ProduceVblock(node, vb, respond_in_vb, block_values);
    }
    // Intra-Vblock edges are skipped — the sub-iterations already delivered
    // (or carried) their messages. The whole adjacency block is still read
    // and scanned; only the cross-Vblock share generates messages.
    const RangePartition& partition = this->engine_->partition();
    return this->PushVblock(
        node, vb, respond_in_vb, block_values,
        [&](VertexId dst) { return partition.VblockOf(dst) != vb; });
  }

  /// GraphHP-style local sub-iterations over one Vblock (intra-block
  /// asynchrony): after the global Phase B sweep updated the block, keep
  /// propagating messages along intra-Vblock edges in memory — no barrier,
  /// no wire — until quiescence or a total of config.ghp_max_local_iters
  /// sweeps (the global Phase B counts as the first). Only sound when the
  /// update is a monotone idempotent fold, so this chaotic relaxation
  /// reaches the same least fixpoint as the synchronous schedule.
  ///
  /// Message routing per round: messages to *inner* destinations (every edge
  /// inside the Vblock) are delivered and their updates run immediately —
  /// that is the sub-iteration; messages to *boundary* destinations are
  /// carried into inbox_next through the normal push-apply machinery
  /// (consumed next superstep, spilling on overflow like any pushed batch,
  /// but never metered as wire traffic). At the sweep cap every undelivered
  /// message — inner destinations included — is carried, so nothing is lost.
  ///
  /// Afterwards the respond flags are rewritten: only respondents with
  /// cross-Vblock out-edges still need the produce sweep (it ships exactly
  /// those edges); everyone else's output was fully handled here.
  /// Convergence stays exact — carried messages keep inflight > 0.
  Status AfterVblockUpdate(NodeState& node, uint32_t vb,
                           std::vector<uint8_t>& respond_in_vb,
                           std::vector<uint8_t>& values,
                           bool* block_dirty) override {
    if constexpr (!LocallyIterable<P>) {
      return Status::OK();
    }
    constexpr size_t kMsgRecordSize = Engine<P>::kMsgRecordSize;
    const JobConfig& config = this->engine_->config();
    const int superstep = this->engine_->superstep();
    const RangePartition& partition = this->engine_->partition();
    const VertexRange r = partition.VblockRange(vb);
    const uint32_t first_vb = partition.FirstVblockOf(node.id);

    // Round 0 senders: the Phase B respondents, ascending id.
    std::vector<VertexId> current;
    for (uint32_t x = 0; x < r.size(); ++x) {
      if (respond_in_vb[x]) current.push_back(r.begin + x);
    }

    if (!current.empty() && node.ve->InnerIndex(vb).num_edges > 0) {
      // One metered sidecar scan serves every round of this superstep.
      VeBlockStore::ScanResult scan;
      HG_RETURN_IF_ERROR(node.ve->ScanInner(vb, &scan, node.pipeline.get()));
      node.io.eblock_edge_bytes += scan.edge_bytes;
      node.io.fragment_aux_bytes += scan.aux_bytes;
      // Byte offset of each vertex's run in the sidecar. The walk checks
      // every run's source and destinations against the Vblock first.
      constexpr size_t kNoRun = SIZE_MAX;
      std::vector<size_t> run_at(r.size(), kNoRun);
      EdgeRunWalker runs = scan.Walk();
      for (EdgeRun run; runs.Next(&run);) {
        run_at[run.src - r.begin] = run.offset;
      }
      HG_RETURN_IF_ERROR(runs.status());

      RecordSlab carry(P::kMessageSize);
      uint64_t depth = 0;
      while (!current.empty()) {
        // Produce this round's intra-Vblock messages from the senders.
        std::map<VertexId, std::vector<Message>> local;  // inner dsts, ordered
        uint64_t produced = 0;
        for (VertexId v : current) {
          if (run_at[v - r.begin] == kNoRun) continue;
          const Value value = PodCodec<Value>::Decode(
              values.data() + static_cast<size_t>(v - r.begin) * P::kValueSize);
          const uint32_t out_degree = node.vstore->OutDegree(v);
          const EdgeSpan edges =
              RunAt(Slice(scan.blob), run_at[v - r.begin]).edges;
          node.cpu_seconds +=
              config.cpu.per_edge_s * static_cast<double>(edges.size());
          node.edges_scanned += edges.size();
          for (const Edge e : edges) {
            const Message m = this->engine_->program().GenMessage(
                v, value, out_degree, e, this->engine_->ctx());
            node.cpu_seconds += config.cpu.per_message_s;
            ++produced;
            if (node.ve->IsBoundary(e.dst)) {
              PodCodec<Message>::Encode(m, carry.Append(e.dst));
            } else {
              local[e.dst].push_back(m);
            }
          }
        }
        current.clear();
        if (produced == 0) break;  // quiescent: no sender had intra out-edges
        // Superstep 0 is announce-only (programs ignore messages in Update
        // until superstep 1), so local delivery would drop them — carry
        // everything, exactly like hitting the sweep cap.
        if (superstep == 0 || depth + 1 >= config.ghp_max_local_iters) {
          // Sweep cap reached. Carry every undelivered message — the inner
          // destinations consume theirs from the inbox next superstep.
          for (auto& [dst, msgs] : local) {
            for (const Message& m : msgs) {
              PodCodec<Message>::Encode(m, carry.Append(dst));
            }
          }
          break;
        }
        if (local.empty()) break;  // every message crossed to the carry
        HG_FAIL_POINT("ghp.local");
        TraceSpan span(this->engine_->trace(), "local.iter", superstep,
                       static_cast<int>(node.id), EngineMode::kGraphHp);
        ++depth;
        ++node.local_iters;
        // Deliver to the inner destinations in ascending id order and run
        // their updates against the in-hand block values.
        for (auto& [dst, msgs] : local) {
          const UpdateResult res = this->ApplyUpdate(
              node, dst,
              values.data() + static_cast<size_t>(dst - r.begin) * P::kValueSize,
              msgs, block_dirty);
          node.local_msg_bytes += msgs.size() * kMsgRecordSize;
          if (res.respond) current.push_back(dst);
          node.active[node.LocalIdx(dst)] = 0;
        }
      }
      if (!carry.empty()) {
        HG_RETURN_IF_ERROR(AdmitPushRecords(
            node, node.inbox_next, carry.bytes(), this->push_policy()));
        node.local_msg_bytes += carry.count() * kMsgRecordSize;
      }
      node.local_depth = std::max(node.local_depth, depth);
    }

    // Respond-flag rewrite: keep only respondents whose cross-Vblock
    // out-edges still need the produce sweep. Inner respondents (and
    // cross-in-only boundary respondents) had every out-edge handled above.
    bool any_respond = false;
    for (uint32_t x = 0; x < r.size(); ++x) {
      if (!respond_in_vb[x]) continue;
      const VertexId v = r.begin + x;
      if (node.ve->CrossOutDegree(v) == 0) {
        respond_in_vb[x] = 0;
        node.responding_next[node.LocalIdx(v)] = 0;
      } else {
        any_respond = true;
      }
    }
    node.vblock_res_next[vb - first_vb] = any_respond ? 1 : 0;
    return Status::OK();
  }
};

}  // namespace hybridgraph
