// The push MessagePath (Sec 3.1): Phase A drains the double-buffered inbox
// (memory portion + spill merge) into the pending set; Phase B production
// reads the adjacency block once per Vblock and broadcasts along out-edges
// (pushRes()), staging per destination node with optional sender combining
// (pushM+com, Appendix E) and threshold flushes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/paths/block_path_base.h"

namespace hybridgraph {

template <typename P>
class PushPath : public BlockPathBase<P> {
 public:
  /// Push production walks adjacency blocks and folds sends to hot vertices
  /// into mirror slots. GraphHP passes its own caps (it also needs the
  /// VE-BLOCK boundary/inner split).
  explicit PushPath(Engine<P>* engine,
                    PathCaps caps = {.needs_adjacency = true,
                                     .mirrors_hot_vertices = true})
      : BlockPathBase<P>(engine, caps) {}

  EngineMode mode() const override { return EngineMode::kPush; }

  Status Consume(uint32_t i) override {
    NodeState& node = this->engine_->nodes()[i];
    node.pending.ResetCount();
    if (this->engine_->superstep() == 0) return Status::OK();
    return CollectPushMessages(node, this->push_policy());
  }

  Status WarmupNextSuperstep(uint32_t i) override {
    NodeState& node = this->engine_->nodes()[i];
    if (!node.pipeline || !node.pipeline->enabled()) return Status::OK();
    // Next superstep's consume merges inbox_next's spill runs (it becomes
    // inbox_cur at the promotion barrier): stage each run's first chunk now
    // so the merge's opening refills overlap the drain/aggregator exchange.
    node.inbox_next.spill->WarmupMerge(
        this->push_policy().spill_merge_buffer_bytes, node.pipeline.get());
    return Status::OK();
  }

 protected:
  Status ProduceVblock(NodeState& node, uint32_t vb,
                       const std::vector<uint8_t>& respond_in_vb,
                       const std::vector<uint8_t>& block_values) override {
    return this->PushVblock(node, vb, respond_in_vb, block_values,
                            [](VertexId) { return true; });
  }

  Status FinishProduce(NodeState& node) override {
    this->DrainMirrors(node);
    for (uint32_t y = 0; y < this->engine_->config().num_nodes; ++y) {
      HG_RETURN_IF_ERROR(FlushStagedMessages(
          node, this->engine_->transport(), y, /*force=*/true,
          this->engine_->config().sending_threshold_bytes));
    }
    return Status::OK();
  }

  uint64_t ExtraMemoryBytes(const NodeState& node) const override {
    uint64_t buffers = node.inbox_next.mem.bytes().size();
    if (node.moc_slots > 0) {
      buffers += node.moc_slots * P::kMessageSize / 8;  // accumulator slots
    }
    buffers += node.mirror_acc.size();  // hot-vertex mirror slots
    return buffers;
  }
};

}  // namespace hybridgraph
