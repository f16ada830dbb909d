// The VE-BLOCK edge layout (Sec 4.1): for each local Vblock b_j, one Eblock
// g_ji per destination Vblock b_i, holding the edges (u, v) with u in b_j and
// v in b_i, clustered into per-source *fragments* (src id + count + edges).
//
// Per-Vblock metadata X_j (vertex count, total in/out degree, a bitmap of
// which destination Vblocks have edges, and a responding indicator) lets
// Pull-Respond skip Eblocks that cannot produce messages. The store also
// keeps an in-memory per-Eblock index (fragments / aux bytes / edge bytes) —
// this is what the hybrid engine uses to *predict* C_io(b-pull) while running
// push, without touching disk.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/edge_runs.h"
#include "graph/partition.h"
#include "graph/types.h"
#include "io/prefetch.h"
#include "io/storage.h"

namespace hybridgraph {

/// Per-Vblock metadata X_j (paper Sec 4.1), extended with the GraphHP-style
/// boundary/inner split (arXiv:1706.07221): a vertex is *inner* when every
/// one of its edges (in and out) stays within its own Vblock, *boundary*
/// otherwise. Inner vertices can iterate locally without the barrier.
struct VblockMeta {
  uint32_t num_vertices = 0;
  uint64_t in_degree = 0;   ///< total in-degree of the Vblock's vertices
  uint64_t out_degree = 0;  ///< total out-degree
  uint32_t num_boundary = 0;  ///< vertices with >= 1 cross-Vblock edge
  uint64_t inner_edges = 0;   ///< intra-Vblock edges (the diagonal cell)
  std::vector<bool> edge_bitmap;  ///< bit i: Eblock g_{j,i} is non-empty
};

/// The immutable base layout. VeBlockOverlay (ve_block_overlay.h) extends
/// it with delta runs and keeps every table below current under mutation.
class VeBlockStore {
 public:
  using EblockIndex = ::hybridgraph::EblockIndex;

  virtual ~VeBlockStore() = default;

  /// One scanned fragment blob, with the ranges its runs must respect and
  /// the byte split the cost model needs: fragment auxiliary data (IO(F))
  /// vs edge payload (IO(E)).
  struct ScanResult {
    std::vector<uint8_t> blob;  ///< empty when the cell holds no edges
    VertexRange src;            ///< every run's source lies here
    VertexRange dst;            ///< every edge's destination lies here
    uint64_t aux_bytes = 0;
    uint64_t edge_bytes = 0;

    /// Walks the runs, checking each against `src` and `dst`.
    EdgeRunWalker Walk() const {
      return blob.empty() ? EdgeRunWalker()
                          : EdgeRunWalker::Fragments(Slice(blob), src, dst);
    }
  };

  /// Builds Eblocks + metadata from this node's local edges.
  ///
  /// \param in_degrees in-degree per *global* vertex id (needed for X_j and
  ///        the Eq. 6 Vblock sizing; computed once at load time).
  static Result<std::unique_ptr<VeBlockStore>> Build(
      StorageService* storage, const RangePartition& partition, NodeId node,
      const std::vector<RawEdge>& local_edges,
      const std::vector<uint32_t>& in_degrees);

  /// Sequentially scans Eblock g_{src_vb, dst_vb} (metered kSeqRead; the
  /// whole block is read — the paper notes useless edges in a block are
  /// still scanned). Returns NotFound-free empty result for empty Eblocks;
  /// the result walks only runs inside Vblock src_vb with edges into dst_vb.
  /// A non-null `pipeline` serves the read through the prefetcher.
  virtual Status ScanEblock(uint32_t src_vb, uint32_t dst_vb, ScanResult* out,
                            ReadPipeline* pipeline = nullptr);

  /// Stages a background read of Eblock g_{src_vb, dst_vb} for a later
  /// ScanEblock. No-op on a null/disabled pipeline or an empty Eblock.
  virtual void PrefetchEblock(uint32_t src_vb, uint32_t dst_vb,
                              ReadPipeline* pipeline);

  /// Scans the inner-adjacency sidecar of a local Vblock: a standalone copy
  /// of the diagonal cell g_{j,j} (every intra-Vblock edge) under its own
  /// key, so local sub-iterations never touch the Eblock grid. Same
  /// encoding, metering (one kSeqRead) and byte split as ScanEblock; its
  /// runs lie inside the Vblock at both ends.
  Status ScanInner(uint32_t global_vb, ScanResult* out,
                   ReadPipeline* pipeline = nullptr);

  /// Storage keys of Eblock g_{src_vb, dst_vb} and of a Vblock's inner
  /// sidecar (the overlay rewrites both in place).
  std::string EblockKey(uint32_t src_vb, uint32_t dst_vb) const;
  std::string InnerKey(uint32_t global_vb) const;

  /// Index of the inner sidecar blob (not part of the grid totals).
  const EblockIndex& InnerIndex(uint32_t global_vb) const {
    return inner_index_[LocalVb(global_vb)];
  }

  /// True when local vertex v has at least one edge (in or out) leaving its
  /// Vblock. v must be in this node's range.
  bool IsBoundary(VertexId v) const {
    const uint32_t li = v - range_begin_;
    return cross_in_[li] + cross_out_[li] > 0;
  }
  /// Local vertex v's cross-Vblock out-edge count (0 for inner vertices).
  uint64_t CrossOutDegree(VertexId v) const {
    return cross_out_[v - range_begin_];
  }

  const VblockMeta& Meta(uint32_t global_vb) const {
    return metas_[LocalVb(global_vb)];
  }
  bool HasEdges(uint32_t src_vb, uint32_t dst_vb) const {
    return metas_[LocalVb(src_vb)].edge_bitmap[dst_vb];
  }
  const EblockIndex& Index(uint32_t src_vb, uint32_t dst_vb) const {
    return index_[LocalVb(src_vb)][dst_vb];
  }

  /// Fragments across all local Eblocks (the f of Theorem 2).
  uint64_t TotalFragments() const { return total_fragments_; }
  uint64_t TotalEdgeBytes() const { return total_edge_bytes_; }
  uint64_t TotalAuxBytes() const { return total_aux_bytes_; }
  uint64_t TotalBytes() const { return total_edge_bytes_ + total_aux_bytes_; }

 protected:
  VeBlockStore(StorageService* storage, const RangePartition& partition,
               NodeId node);

  /// Writes the Eblocks and sidecars of `local_edges` and fills the tables.
  Status Load(const std::vector<RawEdge>& local_edges,
              const std::vector<uint32_t>& in_degrees);

  /// Reads (one metered kSeqRead, via `pipeline` when non-null) the fragment
  /// blob at `key` described by `idx`, whose runs must lie in `src` x `dst`;
  /// empty `idx`, no read.
  Status ScanFragmentBlob(ReadPipeline* pipeline, const std::string& key,
                          const EblockIndex& idx, VertexRange src,
                          VertexRange dst, ScanResult* out);

  uint32_t LocalVb(uint32_t global_vb) const {
    return global_vb - first_vb_;
  }

  StorageService* storage_;
  const RangePartition* partition_;
  NodeId node_;
  uint32_t first_vb_;
  VertexId range_begin_ = 0;
  std::vector<VblockMeta> metas_;                 // per local vblock
  std::vector<std::vector<EblockIndex>> index_;   // [local vblock][global vblock]
  std::vector<EblockIndex> inner_index_;          // sidecar, per local vblock
  std::vector<uint64_t> cross_out_;  // per local vertex: out-edges leaving vb
  std::vector<uint64_t> cross_in_;   // per local vertex: in-edges from outside
  uint64_t total_fragments_ = 0;
  uint64_t total_edge_bytes_ = 0;
  uint64_t total_aux_bytes_ = 0;
};

}  // namespace hybridgraph
