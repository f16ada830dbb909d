// The pushM MessagePath (MOCgraph online computing, Sec 3.1/6): push, plus a
// hot-aware vertex cache — the B_i highest in-degree local vertices stay
// memory-resident and incoming messages for them fold into per-vertex
// accumulators at receive time instead of being stored.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/paths/push_path.h"

namespace hybridgraph {

template <typename P>
class PushMPath : public PushPath<P> {
 public:
  explicit PushMPath(Engine<P>* engine) : PushPath<P>(engine) {}

  EngineMode mode() const override { return EngineMode::kPushM; }

  Status Build(const EdgeListGraph& graph) override {
    HG_RETURN_IF_ERROR(PushPath<P>::Build(graph));
    // pushM vertex cache: the B_i highest in-degree local vertices stay
    // memory-resident (MOCgraph's hot-aware placement).
    const auto in_degrees = graph.InDegrees();
    for (NodeState& node : this->engine_->nodes()) {
      const uint32_t n = node.range.size();
      node.moc_cached.assign(n, 0);
      if constexpr (P::kCombinable) {
        node.moc_acc.assign(static_cast<size_t>(n) * P::kMessageSize, 0);
        node.moc_slots = n;
      }
      node.moc_has.assign(n, 0);
      const uint64_t cap = this->engine_->config().msg_buffer_per_node;
      if (cap >= n) {
        std::fill(node.moc_cached.begin(), node.moc_cached.end(), 1);
      } else {
        std::vector<uint32_t> idx(n);
        std::iota(idx.begin(), idx.end(), 0);
        std::nth_element(idx.begin(), idx.begin() + cap, idx.end(),
                         [&](uint32_t a, uint32_t b) {
                           return in_degrees[node.range.begin + a] >
                                  in_degrees[node.range.begin + b];
                         });
        for (uint64_t k = 0; k < cap; ++k) node.moc_cached[idx[k]] = 1;
      }
    }
    return Status::OK();
  }
};

}  // namespace hybridgraph
