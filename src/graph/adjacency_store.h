// Disk-resident adjacency-list store (the push-side edge layout).
//
// Edges are grouped into one block per Vblock of the owning node, each block
// holding the full out-edge lists of that Vblock's vertices (Giraph-style).
// pushRes() needs all out-edges of a vertex contiguously, which is exactly
// what fragments in Eblocks cannot provide — hence hybrid stores edges twice
// (Sec 5.2), once here and once in VeBlockStore.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/edge_delta.h"
#include "graph/edge_runs.h"
#include "graph/partition.h"
#include "graph/types.h"
#include "io/prefetch.h"
#include "io/storage.h"

namespace hybridgraph {

class AdjacencyStore {
 public:
  /// Builds the store from this node's local edges (must all have a local
  /// source). Edges need not be pre-sorted.
  static Result<std::unique_ptr<AdjacencyStore>> Build(
      StorageService* storage, const RangePartition& partition, NodeId node,
      const std::vector<RawEdge>& local_edges);

  /// Sequentially reads one adjacency block's bytes (metered kSeqRead). A
  /// non-null `pipeline` serves the read through the prefetcher.
  Status ReadBlock(uint32_t global_vb, std::vector<uint8_t>* block,
                   ReadPipeline* pipeline = nullptr);

  /// Walks the runs of a block ReadBlock returned: one per vertex of the
  /// Vblock in id order (empty lists included), every destination an
  /// existing vertex.
  EdgeRunWalker Walk(uint32_t global_vb, Slice block) const;

  /// Stages a background read of a block for a later ReadBlock. No-op on a
  /// null/disabled pipeline.
  void PrefetchBlock(uint32_t global_vb, ReadPipeline* pipeline);

  /// Applies one streaming batch's local-source deltas: read-modify-writes
  /// every touched adjacency block (metered kSeqRead + kSeqWrite). Deletes
  /// remove all (src, dst) matches, inserts append at the end of the
  /// source's out-list — the same semantics as edge_delta.h, so the result
  /// equals a cold Build on the mutated edge list. `degree_delta` (optional)
  /// accumulates per-source out-degree changes.
  Status ApplyBatch(const std::vector<EdgeDelta>& deltas,
                    DegreeDeltaMap* degree_delta);

  /// Serialized size of one block.
  uint64_t BlockBytes(uint32_t global_vb) const;
  /// Number of edges in one block.
  uint64_t BlockEdges(uint32_t global_vb) const;
  uint64_t TotalBytes() const;
  uint64_t TotalEdges() const;

 private:
  AdjacencyStore(StorageService* storage, const RangePartition& partition,
                 NodeId node);

  std::string BlockKey(uint32_t global_vb) const;
  uint32_t LocalVb(uint32_t global_vb) const;

  StorageService* storage_;
  const RangePartition* partition_;
  NodeId node_;
  std::vector<EblockIndex> blocks_;  // runs written, per local vblock
};

}  // namespace hybridgraph
