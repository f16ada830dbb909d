#include "core/epoch_driver.h"

#include <charconv>
#include <limits>
#include <set>

namespace hybridgraph {

namespace {

/// The one EpochMetrics field list, in column order: the CSV header, the CSV
/// rows and the JSON objects all derive from it.
template <typename Fn>
void ForEachField(const EpochMetrics& m, Fn&& fn) {
  fn("epoch", m.epoch);
  fn("timestamp", m.timestamp);
  fn("batch_deltas", m.batch_deltas);
  fn("inserts", m.inserts);
  fn("deletes", m.deletes);
  fn("touched_vertices", m.touched_vertices);
  fn("warm", m.warm);
  fn("supersteps", m.supersteps);
  fn("ingest_wall_s", m.ingest_wall_s);
  fn("converge_wall_s", m.converge_wall_s);
  fn("modeled_seconds", m.modeled_seconds);
  fn("read_bytes", m.read_bytes);
  fn("write_bytes", m.write_bytes);
  fn("net_bytes", m.net_bytes);
  fn("delta_runs", m.delta_runs);
  fn("delta_bytes", m.delta_bytes);
}

// STATS serializes every epoch per request, so the fields append in place
// (to_chars with a precision prints exactly what printf's "%.6f" does).
void AppendField(std::string* out, uint64_t v, bool) {
  char buf[std::numeric_limits<uint64_t>::digits10 + 2];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}
void AppendField(std::string* out, double v, bool) {
  char buf[std::numeric_limits<double>::max_exponent10 + 16];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::fixed, 6)
                       .ptr);
}
void AppendField(std::string* out, bool v, bool json) {
  out->append(json ? (v ? "true" : "false") : (v ? "1" : "0"));
}

}  // namespace

std::string EpochMetricsCsvHeader() {
  std::string out;
  ForEachField(EpochMetrics{}, [&](const char* name, const auto&) {
    if (!out.empty()) out += ',';
    out += name;
  });
  return out;
}

std::string EpochMetricsCsvRow(const EpochMetrics& m) {
  std::string out;
  const char* sep = "";
  ForEachField(m, [&](const char*, const auto& v) {
    out += sep;
    AppendField(&out, v, /*json=*/false);
    sep = ",";
  });
  return out;
}

std::string EpochMetricsJson(const std::vector<EpochMetrics>& all) {
  std::string out = "[\n";
  for (size_t i = 0; i < all.size(); ++i) {
    const char* sep = "  {";
    ForEachField(all[i], [&](const char* name, const auto& v) {
      out += sep;
      out += '"';
      out += name;
      out += "\": ";
      AppendField(&out, v, /*json=*/true);
      sep = ", ";
    });
    out += i + 1 < all.size() ? "},\n" : "}\n";
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

}  // namespace hybridgraph
