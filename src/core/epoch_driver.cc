#include "core/epoch_driver.h"

#include <set>

#include "algos/bfs.h"
#include "algos/pagerank_delta.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "util/string_util.h"

namespace hybridgraph {

std::string EpochMetricsCsvHeader() {
  return "epoch,timestamp,batch_deltas,inserts,deletes,touched_vertices,warm,"
         "supersteps,ingest_wall_s,converge_wall_s,modeled_seconds,read_bytes,"
         "write_bytes,net_bytes,delta_runs,delta_bytes";
}

std::string EpochMetricsCsvRow(const EpochMetrics& m) {
  return StringFormat(
      "%llu,%llu,%llu,%llu,%llu,%llu,%d,%llu,%.6f,%.6f,%.6f,%llu,%llu,%llu,"
      "%llu,%llu",
      static_cast<unsigned long long>(m.epoch),
      static_cast<unsigned long long>(m.timestamp),
      static_cast<unsigned long long>(m.batch_deltas),
      static_cast<unsigned long long>(m.inserts),
      static_cast<unsigned long long>(m.deletes),
      static_cast<unsigned long long>(m.touched_vertices), m.warm ? 1 : 0,
      static_cast<unsigned long long>(m.supersteps), m.ingest_wall_s,
      m.converge_wall_s, m.modeled_seconds,
      static_cast<unsigned long long>(m.read_bytes),
      static_cast<unsigned long long>(m.write_bytes),
      static_cast<unsigned long long>(m.net_bytes),
      static_cast<unsigned long long>(m.delta_runs),
      static_cast<unsigned long long>(m.delta_bytes));
}

std::string EpochMetricsJson(const std::vector<EpochMetrics>& all) {
  std::string out = "[\n";
  for (size_t i = 0; i < all.size(); ++i) {
    const EpochMetrics& m = all[i];
    out += StringFormat(
        "  {\"epoch\": %llu, \"timestamp\": %llu, \"batch_deltas\": %llu, "
        "\"inserts\": %llu, \"deletes\": %llu, \"touched_vertices\": %llu, "
        "\"warm\": %s, \"supersteps\": %llu, \"ingest_wall_s\": %.6f, "
        "\"converge_wall_s\": %.6f, \"modeled_seconds\": %.6f, "
        "\"read_bytes\": %llu, \"write_bytes\": %llu, \"net_bytes\": %llu, "
        "\"delta_runs\": %llu, \"delta_bytes\": %llu}%s\n",
        static_cast<unsigned long long>(m.epoch),
        static_cast<unsigned long long>(m.timestamp),
        static_cast<unsigned long long>(m.batch_deltas),
        static_cast<unsigned long long>(m.inserts),
        static_cast<unsigned long long>(m.deletes),
        static_cast<unsigned long long>(m.touched_vertices),
        m.warm ? "true" : "false",
        static_cast<unsigned long long>(m.supersteps), m.ingest_wall_s,
        m.converge_wall_s, m.modeled_seconds,
        static_cast<unsigned long long>(m.read_bytes),
        static_cast<unsigned long long>(m.write_bytes),
        static_cast<unsigned long long>(m.net_bytes),
        static_cast<unsigned long long>(m.delta_runs),
        static_cast<unsigned long long>(m.delta_bytes),
        i + 1 < all.size() ? "," : "");
  }
  out += "]";
  return out;
}

Status ApplyEdgeBatch(const RangePartition& partition, const EdgeBatch& batch,
                      std::vector<NodeState>& nodes,
                      std::vector<VertexId>* touched) {
  if (nodes.empty()) {
    return Status::FailedPrecondition(
        "streaming requires a loaded block-centric topology");
  }
  HG_RETURN_IF_ERROR(ValidateBatch(partition.num_vertices(), batch));
  // In-flight readahead was issued against pre-batch bytes; cancel it all.
  // (The store writes below also invalidate matching staged reads via the
  // storage mutation observers — this is the belt to that suspender.)
  for (auto& node : nodes) {
    if (node.pipeline) node.pipeline->CancelAll();
  }

  std::vector<std::vector<EdgeDelta>> per_node(nodes.size());
  for (const auto& d : batch.deltas) {
    per_node[partition.NodeOf(d.src)].push_back(d);
  }
  DegreeDeltaMap in_deg;    // global, keyed by destination vertex
  DegreeDeltaMap cross_in;  // global, cross-Vblock share of in_deg
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (per_node[i].empty()) continue;
    NodeState& node = nodes[i];
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
      node.vstore->AdjustOutDegree(v, dd);
      touched_vbs.insert(partition.VblockOf(v));
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
    NodeState& owner = nodes[partition.NodeOf(v)];
    if (owner.ve != nullptr) {
      owner.ve->AdjustInDegree(partition.VblockOf(v), dd);
    }
  }
  // Cross-Vblock in-edge deltas reach the destination owner's overlay so
  // boundary/inner classification stays exact under remote-source deltas.
  for (const auto& [v, dd] : cross_in) {
    NodeState& owner = nodes[partition.NodeOf(v)];
    if (owner.ve != nullptr) owner.ve->AdjustCrossIn(v, dd);
  }
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

Result<std::unique_ptr<AnyEpochEngine>> MakeEpochEngine(const JobConfig& config,
                                                        const EpochAlgoSpec& spec) {
  switch (config.mode) {
    case EngineMode::kPush:
    case EngineMode::kPushM:
    case EngineMode::kBPull:
    case EngineMode::kHybrid:
    case EngineMode::kGraphHp:
      break;
    default:
      return Status::InvalidArgument(
          "streaming epochs require a block-centric mode "
          "(push, pushM, bpull, hybrid or graphhp)");
  }
  if (spec.name == "pagerank-delta") {
    PageRankDeltaProgram p;
    p.damping = spec.damping;
    p.tolerance = spec.tolerance;
    return std::unique_ptr<AnyEpochEngine>(
        new EpochEngine<PageRankDeltaProgram>(config, p));
  }
  if (spec.name == "sssp") {
    SsspProgram p;
    p.source = spec.source;
    return std::unique_ptr<AnyEpochEngine>(
        new EpochEngine<SsspProgram>(config, p));
  }
  if (spec.name == "bfs") {
    BfsProgram p;
    p.source = spec.source;
    return std::unique_ptr<AnyEpochEngine>(
        new EpochEngine<BfsProgram>(config, p));
  }
  if (spec.name == "wcc") {
    return std::unique_ptr<AnyEpochEngine>(
        new EpochEngine<WccProgram>(config, WccProgram{}));
  }
  return Status::InvalidArgument("unknown epoch algorithm: " + spec.name);
}

}  // namespace hybridgraph
