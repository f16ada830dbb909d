// Edge mutations for the streaming subsystem: a timestamped batch of
// inserts/tombstones applied between epochs. The semantics are shared by
// every consumer — `ApplyBatchToGraph` (the differential-test oracle), the
// VE-BLOCK overlay runs, and `AdjacencyStore::ApplyBatch` — so one batch
// replayed through any of them yields the same logical graph:
//
//   insert (u, v, w): appended after all existing out-edges of u.
//   delete (u, v):    removes EVERY live (u, v) edge, whatever its weight,
//                     including inserts from earlier in the same batch.
//
// Deltas are applied strictly in batch order, so [insert(u,v), delete(u,v)]
// nets to nothing while the reverse nets to one edge.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"
#include "util/codec.h"
#include "util/status.h"

namespace hybridgraph {

/// Per-vertex out-degree change produced by applying a batch; every store
/// that applies the same batch reports the same map, which is how the
/// vertex-value store's degrees stay consistent with the edge layouts.
using DegreeDeltaMap = std::map<VertexId, int64_t>;

/// One edge mutation. `weight` is meaningless for deletes.
struct EdgeDelta {
  VertexId src = 0;
  VertexId dst = 0;
  float weight = 0.0f;
  bool is_delete = false;

  bool operator==(const EdgeDelta& o) const {
    return src == o.src && dst == o.dst && weight == o.weight &&
           is_delete == o.is_delete;
  }
};

/// A timestamped group of deltas ingested as one unit between epochs.
struct EdgeBatch {
  uint64_t timestamp = 0;
  std::vector<EdgeDelta> deltas;

  bool HasDeletes() const {
    for (const auto& d : deltas) {
      if (d.is_delete) return true;
    }
    return false;
  }
  size_t NumInserts() const { return deltas.size() - NumDeletes(); }
  size_t NumDeletes() const {
    size_t n = 0;
    for (const auto& d : deltas) n += d.is_delete ? 1 : 0;
    return n;
  }
};

/// Rejects deltas whose endpoints fall outside [0, num_vertices) — the
/// partition is fixed at load time, so streaming cannot grow the vertex set.
Status ValidateBatch(uint64_t num_vertices, const EdgeBatch& batch);

/// The delta list encoding shared by INGEST requests and the overlay's delta
/// runs: varint count, then per delta u8 flags (bit 0 = delete) + fixed32
/// src + fixed32 dst + float weight (13 bytes).
void EncodeDeltas(const std::vector<EdgeDelta>& deltas, Encoder* enc);
/// Appends one encoded list to `*out`, leaving `dec` just past it. A count
/// the remaining bytes cannot hold is Corruption.
Status DecodeDeltas(Decoder* dec, std::vector<EdgeDelta>* out);

/// Applies a batch to an in-memory edge list (the cold-run oracle the epoch
/// differential tests compare against). Deltas apply in batch order; deletes
/// remove all matching (src, dst) pairs, inserts append at the end of the
/// edge vector — matching the overlay's merged-fragment order.
void ApplyBatchToGraph(EdgeListGraph* graph, const EdgeBatch& batch);

}  // namespace hybridgraph
