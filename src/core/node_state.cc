#include "core/node_state.h"

#include <algorithm>

namespace hybridgraph {

void MergePullServeCounters(NodeState& node, uint32_t num_nodes) {
  for (uint32_t src = 0; src < num_nodes; ++src) {
    NodeState::PullServe& serve = node.pull_serve[src];
    node.io.eblock_edge_bytes += serve.io.eblock_edge_bytes;
    node.io.fragment_aux_bytes += serve.io.fragment_aux_bytes;
    node.io.vrr_bytes += serve.io.vrr_bytes;
    node.cpu_seconds += serve.cpu_seconds;
    node.msgs_produced += serve.msgs_produced;
    node.msgs_combined += serve.msgs_combined;
    node.msgs_wire += serve.msgs_wire;
    node.flushes += serve.flushes;
    node.edges_scanned += serve.edges;
    node.mem_highwater = std::max(node.mem_highwater, serve.bs_highwater);
    serve = NodeState::PullServe{};
  }
}

Status ResetEpochState(NodeState& node) {
  std::fill(node.responding.begin(), node.responding.end(), 0);
  std::fill(node.responding_next.begin(), node.responding_next.end(), 0);
  std::fill(node.vblock_res.begin(), node.vblock_res.end(), 0);
  std::fill(node.vblock_res_next.begin(), node.vblock_res_next.end(), 0);
  node.inbox_cur.ClearMem();
  node.inbox_next.ClearMem();
  if (node.inbox_cur.spill != nullptr) {
    HG_RETURN_IF_ERROR(node.inbox_cur.spill->Clear());
  }
  if (node.inbox_next.spill != nullptr) {
    HG_RETURN_IF_ERROR(node.inbox_next.spill->Clear());
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
  std::fill(node.pull_advert_valid.begin(), node.pull_advert_valid.end(), 0);
  return Status::OK();
}

}  // namespace hybridgraph
