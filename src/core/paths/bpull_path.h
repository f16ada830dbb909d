// The b-pull MessagePath (Sec 4): Phase A issues one Pull-Request per local
// Vblock to every node (Algorithm 1); the remote side answers with
// Pull-Respond (Algorithm 2) served here from the VE-BLOCK layout — Eblock
// scans gated by X_j.res and the bitmap, random source-value reads (IO(V_rr))
// and per-destination grouping/combining into the sending buffer BS.
// Production ships nothing: next superstep's pulls generate on demand.
#pragma once

#include <cstdint>

#include "core/paths/block_path_base.h"

namespace hybridgraph {

template <typename P>
class BPullPath : public BlockPathBase<P> {
 public:
  explicit BPullPath(Engine<P>* engine)
      : BlockPathBase<P>(engine,
                         {.needs_veblocks = true, .serves_pulls = true}) {}

  EngineMode mode() const override { return EngineMode::kBPull; }

  Status Consume(uint32_t i) override {
    NodeState& node = this->engine_->nodes()[i];
    node.pending.ResetCount();
    if (this->engine_->superstep() == 0) return Status::OK();
    return CollectBPullMessages(node, this->engine_->partition(),
                                this->engine_->transport(),
                                this->PullCollectPolicy());
  }

  Status WarmupNextSuperstep(uint32_t i) override {
    NodeState& node = this->engine_->nodes()[i];
    if (!node.pipeline || !node.pipeline->enabled()) return Status::OK();
    this->WarmupPullEblocks(node, [](uint32_t, uint32_t) { return true; });
    return Status::OK();
  }

  Status ServePull(NodeState& node, NodeId requester, Slice payload,
                   Buffer* response) override {
    // Algorithm 2 (Pull-Respond) over every responding Eblock.
    return this->ServePullCells(node, requester, payload, response,
                                [](uint32_t, uint32_t) { return true; });
  }
};

}  // namespace hybridgraph
