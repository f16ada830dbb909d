// The frontier-aware adaptive MessagePath: push or b-pull chosen PER EBLOCK
// GRID CELL each superstep, instead of the paper's global Eq. 11 choice.
//
// Within one superstep of a traversal workload (BFS/SSSP) the frontier is
// dense in some Vblocks and sparse in others: dense source rows want the
// Eblock scan + combining of Pull-Respond, sparse rows want push's
// touch-only-the-frontier adjacency walk. Each Phase B sweep tracks the
// responding set per node in a dual bitmap/queue Frontier, computes the
// per-Vblock stats, and decides every cell g_ji with the Beamer-style α/β
// rule in DecideCell (core/frontier.h):
//
//   - push cells ship immediately along the adjacency out-edges whose
//     destination Vblock was decided push (reusing push's staging /
//     threshold-flush machinery);
//   - pull cells ship nothing — the next superstep's Pull-Requests reach
//     ServePull here, which serves exactly the cells decided pull (reusing
//     b-pull's Eblock scan / V_rr / grouped-combining machinery).
//
// Consumption therefore composes both drains: the inbox merge for what was
// pushed plus one Pull-Request per local Vblock for what was deferred.
// DecideCell is pure in (responding flags, static layout metadata), so the
// serve side recomputes the production grid exactly — no decision state is
// stored, promoted, or checkpointed, and a restored run re-derives the grid
// from the serialized respond flags.
//
// Determinism contract: the per-cell counters and the decision log are
// written only by the owning node's Phase B task and folded in node order on
// the engine thread at EndAccounting, so push_cells/pull_cells (new CSV
// columns) and decision_log() are bit-identical at any thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/frontier.h"
#include "core/paths/block_path_base.h"
#include "core/trace.h"
#include "graph/adjacency_store.h"
#include "graph/ve_block_store.h"
#include "net/message_codec.h"
#include "util/codec.h"
#include "util/string_util.h"

namespace hybridgraph {

template <typename P>
class AdaptivePath : public BlockPathBase<P> {
 public:
  using Value = typename P::Value;
  using Message = typename P::Message;

  // Both layouts: push cells walk adjacency blocks, pull cells serve
  // Eblocks. Q_t prediction assumes single-direction production; per-cell
  // mixing would feed it inconsistent observations.
  explicit AdaptivePath(Engine<P>* engine)
      : BlockPathBase<P>(engine, {.needs_adjacency = true,
                                  .needs_veblocks = true,
                                  .hybrid_metrics = false,
                                  .serves_pulls = true,
                                  .mirrors_hot_vertices = true}) {}

  EngineMode mode() const override { return EngineMode::kAdaptive; }

  Status Build(const EdgeListGraph& graph) override {
    HG_RETURN_IF_ERROR(BlockPathBase<P>::Build(graph));
    scratch_.assign(this->engine_->config().num_nodes, NodeScratch{});
    return Status::OK();
  }

  void BeginAccounting() override {
    BlockPathBase<P>::BeginAccounting();
    // Driver thread, before the phase fan-out: per-superstep scratch reset.
    std::vector<NodeState>& nodes = this->engine_->nodes();
    for (size_t i = 0; i < scratch_.size(); ++i) {
      NodeScratch& sc = scratch_[i];
      sc.frontier.Reset(nodes[i].range.size(), policy_);
      sc.push_cells = 0;
      sc.pull_cells = 0;
      sc.decision_rows.clear();
      sc.pull_target.assign(this->engine_->partition().num_vblocks(), 0);
    }
  }

  Status Consume(uint32_t i) override {
    NodeState& node = this->engine_->nodes()[i];
    node.pending.ResetCount();
    if (this->engine_->superstep() == 0) return Status::OK();
    // Push cells delivered into the inbox at t-1; pull cells answer the
    // requests issued here. Fixed order (push drain, then pulls in
    // ascending node order inside CollectBPullMessages) keeps the pending
    // set and every counter thread-count invariant.
    HG_RETURN_IF_ERROR(CollectPushMessages(node, this->push_policy()));
    const RangePartition& partition = this->engine_->partition();
    const uint32_t num_nodes = this->engine_->config().num_nodes;
    const uint32_t first_vb = partition.FirstVblockOf(node.id);
    const uint32_t num_local_vb = partition.LastVblockOf(node.id) - first_vb;

    // Request mask from the kPullAdvert exchange: producer y advertised
    // which of OUR Vblocks it decided pull for; everything else would pull
    // an empty response, so the round trip is skipped. A missing advert
    // (e.g. right after a checkpoint restore) conservatively requests
    // everything — correct, just unoptimized for that one superstep.
    std::vector<std::vector<uint8_t>> mask(num_nodes);
    for (uint32_t y = 0; y < num_nodes; ++y) {
      if (!node.pull_advert_valid[y]) {
        mask[y].assign(num_local_vb, 1);
        continue;
      }
      mask[y].assign(num_local_vb, 0);
      // Advert wire format: fixed32 count + count × fixed32 Vblock ids
      // (always prefixed, unlike requests, so an empty advert is distinct
      // from a legacy single-Vblock payload).
      Decoder dec(Slice(node.pull_advert_staged[y].data(),
                        node.pull_advert_staged[y].size()));
      uint32_t count = 0;
      HG_RETURN_IF_ERROR(dec.GetFixed32(&count));
      for (uint32_t k = 0; k < count; ++k) {
        uint32_t vb = 0;
        HG_RETURN_IF_ERROR(dec.GetFixed32(&vb));
        if (vb < first_vb || vb >= first_vb + num_local_vb) {
          return Status::InvalidArgument("pull advert for a foreign Vblock");
        }
        mask[y][vb - first_vb] = 1;
      }
      node.pull_advert_valid[y] = 0;  // one advert per production superstep
      node.pull_advert_staged[y].clear();
    }

    BPullCollectPolicy policy = this->PullCollectPolicy();
    policy.request_mask = &mask;
    return CollectBPullMessages(node, partition,
                                this->engine_->transport(), policy);
  }

  Status WarmupNextSuperstep(uint32_t i) override {
    NodeState& node = this->engine_->nodes()[i];
    if (!node.pipeline || !node.pipeline->enabled()) return Status::OK();
    // Both of next superstep's consume sources benefit: the spill runs the
    // inbox merge will read, and the Eblocks of rows whose cells were
    // decided pull. Observability only — nothing modeled moves.
    node.inbox_next.spill->WarmupMerge(
        this->push_policy().spill_merge_buffer_bytes, node.pipeline.get());
    this->WarmupPullEblocks(node, [&](uint32_t vb, uint32_t target_vb) {
      return DecideFromFlags(node, vb, target_vb, node.responding_next) ==
             CellDecision::kPull;
    });
    return Status::OK();
  }

 protected:
  Status ProduceVblock(NodeState& node, uint32_t vb,
                       const std::vector<uint8_t>& respond_in_vb,
                       const std::vector<uint8_t>& block_values) override {
    const RangePartition& partition = this->engine_->partition();
    const VertexRange r = partition.VblockRange(vb);
    NodeScratch& sc = scratch_[node.id];

    // Frontier tracking: add this block's responding vertices (bitmap/queue
    // representation switches automatically at the density threshold).
    uint32_t active = 0;
    uint64_t active_degree = 0;
    for (uint32_t k = 0; k < respond_in_vb.size(); ++k) {
      if (!respond_in_vb[k]) continue;
      ++active;
      const uint32_t deg = node.vstore->OutDegree(r.begin + k);
      active_degree += deg;
      HG_RETURN_IF_ERROR(sc.frontier.Add(node.LocalIdx(r.begin + k), deg));
    }
    if (active == 0) return Status::OK();

    // Decide the whole grid row j=vb. The row string becomes the decision
    // log / golden-test record; push cells are collected for the filtered
    // adjacency walk below.
    const uint32_t num_vb = partition.num_vblocks();
    std::vector<uint8_t> push_cell(num_vb, 0);
    std::string row;
    row.reserve(num_vb);
    bool any_push = false;
    for (uint32_t dst = 0; dst < num_vb; ++dst) {
      const CellDecision d = Decide(node, vb, dst, active, active_degree);
      row.push_back(CellDecisionChar(d));
      if (d == CellDecision::kPush) {
        push_cell[dst] = 1;
        any_push = true;
        ++sc.push_cells;
      } else if (d == CellDecision::kPull) {
        ++sc.pull_cells;
        sc.pull_target[dst] = 1;  // advertised to dst's owner at the barrier
      }
    }
    sc.decision_rows += StringFormat("t=%d n=%u j=%u %s\n",
                                     this->engine_->superstep(), node.id, vb,
                                     row.c_str());
    if (!any_push) return Status::OK();  // all-pull row: no adjacency I/O

    // pushRes() for the push cells only: one adjacency block read per row
    // (same charge as pure push), messages filtered by destination cell.
    return this->PushVblock(node, vb, respond_in_vb, block_values,
                            [&](VertexId dst) {
                              return push_cell[partition.VblockOf(dst)] != 0;
                            });
  }

  Status FinishProduce(NodeState& node) override {
    this->DrainMirrors(node);
    const RangePartition& partition = this->engine_->partition();
    const NodeScratch& sc = scratch_[node.id];
    Buffer advert;
    Encoder enc(&advert);
    for (uint32_t y = 0; y < this->engine_->config().num_nodes; ++y) {
      HG_RETURN_IF_ERROR(FlushStagedMessages(
          node, this->engine_->transport(), y, /*force=*/true,
          this->engine_->config().sending_threshold_bytes));
      // Pull advert: tell y which of ITS Vblocks this node decided pull
      // for, so y's next consume skips the provably-empty round trips.
      // Posted every production superstep — an empty advert (count 0) is
      // an explicit "request nothing", distinct from no advert at all.
      advert.Clear();
      uint32_t count = 0;
      for (uint32_t dst = partition.FirstVblockOf(y);
           dst < partition.LastVblockOf(y); ++dst) {
        count += sc.pull_target[dst];
      }
      enc.PutFixed32(count);
      for (uint32_t dst = partition.FirstVblockOf(y);
           dst < partition.LastVblockOf(y); ++dst) {
        if (sc.pull_target[dst]) enc.PutFixed32(dst);
      }
      HG_RETURN_IF_ERROR(this->engine_->transport().Post(
          node.id, y, RpcMethod::kPullAdvert, advert.AsSlice()));
    }
    return Status::OK();
  }

 public:
  Status ServePull(NodeState& node, NodeId requester, Slice payload,
                   Buffer* response) override {
    // Algorithm 2 (Pull-Respond), restricted to the cells this node decided
    // pull at production time. Runs in the requester's thread; recomputes
    // the decisions from the promoted respond flags (identical inputs →
    // identical grid) and must not touch the production scratch. Cells
    // pushed at production time are skipped — serving would duplicate.
    return this->ServePullCells(
        node, requester, payload, response,
        [&](uint32_t vb, uint32_t target_vb) {
          return DecideFromFlags(node, vb, target_vb, node.responding) ==
                 CellDecision::kPull;
        });
  }

  SuperstepMetrics EndAccounting(EngineMode produce_mode,
                                 bool switched) override {
    SuperstepMetrics m = BlockPathBase<P>::EndAccounting(produce_mode,
                                                         switched);
    // Driver thread: fold the per-node cell counters and decision rows in
    // node order, so the totals and the log are thread-count invariant.
    TraceCollector* trace = this->engine_->trace();
    for (size_t i = 0; i < scratch_.size(); ++i) {
      const NodeScratch& sc = scratch_[i];
      m.push_cells += sc.push_cells;
      m.pull_cells += sc.pull_cells;
      decision_log_ += sc.decision_rows;
      if (trace->enabled() && !sc.decision_rows.empty()) {
        trace->AddInstant("adaptive.decide", this->engine_->superstep(),
                          static_cast<int>(i), EngineMode::kAdaptive,
                          sc.decision_rows);
      }
    }
    return m;
  }

  /// Per-Vblock frontier stats of node i's current production sweep (valid
  /// between UpdateProduce and the next BeginAccounting; exposed for tests).
  const Frontier& frontier(uint32_t i) const { return scratch_[i].frontier; }

  /// The accumulated per-cell decision log ("t=<t> n=<node> j=<vblock>
  /// <cells>" per responding row, cells over destination Vblocks with the
  /// CellDecisionChar alphabet) — the golden-test surface.
  const std::string& decision_log() const { return decision_log_; }

 protected:
  uint64_t ExtraMemoryBytes(const NodeState& node) const override {
    // Push share of the buffers (pending inbox records) plus the frontier's
    // current representation and the hot-vertex mirror slots.
    return node.inbox_next.mem.bytes().size() +
           scratch_[node.id].frontier.ApproxBytes() + node.mirror_acc.size();
  }

 private:
  struct NodeScratch {
    Frontier frontier;
    uint64_t push_cells = 0;
    uint64_t pull_cells = 0;
    std::string decision_rows;
    /// Destination Vblocks with >= 1 pull cell this sweep, advertised to
    /// their owners at FinishProduce so empty round trips are skipped.
    std::vector<uint8_t> pull_target;
  };

  struct RespondingStats {
    uint32_t active = 0;
    uint64_t degree = 0;  ///< sum of responding vertices' out-degrees
  };

  /// Responding count and out-degree sum of Vblock `vb` under the given
  /// flag vector.
  RespondingStats CountResponding(const NodeState& node, uint32_t vb,
                                  const std::vector<uint8_t>& flags) const {
    const VertexRange r = this->engine_->partition().VblockRange(vb);
    RespondingStats stats;
    for (VertexId v = r.begin; v < r.end; ++v) {
      if (!flags[node.LocalIdx(v)]) continue;
      ++stats.active;
      stats.degree += node.vstore->OutDegree(v);
    }
    return stats;
  }

  /// The cell decision for g_{vb, dst_vb} with the row stats counted from
  /// the given respond flags.
  CellDecision DecideFromFlags(const NodeState& node, uint32_t vb,
                               uint32_t dst_vb,
                               const std::vector<uint8_t>& flags) const {
    const RespondingStats stats = CountResponding(node, vb, flags);
    return Decide(node, vb, dst_vb, stats.active, stats.degree);
  }

  /// The pure per-cell decision for g_{vb, dst_vb} given the source row's
  /// responding count and out-degree sum.
  CellDecision Decide(const NodeState& node, uint32_t vb, uint32_t dst_vb,
                      uint32_t active, uint64_t active_degree) const {
    const VertexRange r = this->engine_->partition().VblockRange(vb);
    const VeBlockStore::EblockIndex& idx = node.ve->Index(vb, dst_vb);
    CellCostInputs in;
    in.active = active;
    in.active_degree = active_degree;
    in.vertices = r.size();
    in.cell_edges = idx.num_edges;
    in.cell_edge_bytes = idx.edge_bytes;
    in.cell_aux_bytes = idx.aux_bytes;
    in.cell_fragments = idx.num_fragments;
    in.row_edges = node.ve->Meta(vb).out_degree;
    in.adj_row_bytes = node.adj->BlockBytes(vb);
    in.msg_record_size = Engine<P>::kMsgRecordSize;
    in.value_record_size = Engine<P>::kValueRecordSize;
    return DecideCell(in, policy_);
  }

  AdaptivePolicy policy_;
  std::vector<NodeScratch> scratch_;  // indexed by node id
  std::string decision_log_;
};

}  // namespace hybridgraph
