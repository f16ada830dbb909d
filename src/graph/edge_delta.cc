#include "graph/edge_delta.h"

#include <algorithm>

namespace hybridgraph {

Status ValidateBatch(uint64_t num_vertices, const EdgeBatch& batch) {
  for (const auto& d : batch.deltas) {
    if (d.src >= num_vertices || d.dst >= num_vertices) {
      return Status::InvalidArgument(
          "edge delta endpoint outside the loaded vertex range");
    }
  }
  return Status::OK();
}

void EncodeDeltas(const std::vector<EdgeDelta>& deltas, Encoder* enc) {
  enc->PutVarint64(deltas.size());
  for (const auto& d : deltas) {
    enc->PutU8(d.is_delete ? 1 : 0);
    enc->PutFixed32(d.src);
    enc->PutFixed32(d.dst);
    enc->PutFloat(d.weight);
  }
}

Status DecodeDeltas(Decoder* dec, std::vector<EdgeDelta>* out) {
  uint64_t count = 0;
  HG_RETURN_IF_ERROR(dec->GetVarint64(&count));
  if (count > dec->remaining() / 13) {
    return Status::Corruption("edge delta count exceeds the bytes");
  }
  out->reserve(out->size() + count);
  for (uint64_t i = 0; i < count; ++i) {
    EdgeDelta d;
    uint8_t flags = 0;
    HG_RETURN_IF_ERROR(dec->GetU8(&flags));
    HG_RETURN_IF_ERROR(dec->GetFixed32(&d.src));
    HG_RETURN_IF_ERROR(dec->GetFixed32(&d.dst));
    HG_RETURN_IF_ERROR(dec->GetFloat(&d.weight));
    d.is_delete = (flags & 1) != 0;
    out->push_back(d);
  }
  return Status::OK();
}

void ApplyBatchToGraph(EdgeListGraph* graph, const EdgeBatch& batch) {
  for (const auto& d : batch.deltas) {
    if (d.is_delete) {
      auto& edges = graph->edges;
      edges.erase(std::remove_if(edges.begin(), edges.end(),
                                 [&](const RawEdge& e) {
                                   return e.src == d.src && e.dst == d.dst;
                                 }),
                  edges.end());
    } else {
      graph->edges.push_back({d.src, d.dst, d.weight});
    }
  }
}

}  // namespace hybridgraph
