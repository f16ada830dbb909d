// Mutable overlay over the immutable VE-BLOCK base store (ROADMAP item 1 /
// the PartitionedVC direction): edge mutations land as per-Eblock-cell
// *delta runs* — small sorted-by-arrival blobs of inserts and tombstones —
// and every scan merges base fragments with the cell's runs through one
// cursor, so all MessagePath strategies observe the mutated graph without
// knowing it mutated. An epoch's modeled I/O therefore scales with the
// touched cells, not with |E|.
//
// Storage layout (all behind the existing StorageService write path, so the
// PR-5 mutation observers invalidate any staged ReadPipeline prefetch):
//
//   node%u/eblock/%06u/%06u        immutable base Eblock (VeBlockStore)
//   node%u/edelta/%06u/%06u/%06u   delta run, per-cell sequence number
//   node%u/efold/%06u/%06u         compaction watermark: runs with
//                                  seq <= folded are already in the base
//
// Run encoding: varint entry count, then per entry u8 flags (bit 0 =
// tombstone) + fixed32 src + fixed32 dst + float weight. The cost split
// mirrors the base store: 5 bytes/entry aux (flags + src) + the count
// varint, 8 bytes/entry edge payload — tombstoned and superseded entries
// are still decoded on every scan, exactly the paper's "useless edges in a
// block are still scanned" accounting, which is what compaction earns back.
//
// Compaction (`Compact`) folds base + runs into a fresh base blob, advances
// the watermark, then deletes the folded runs. The watermark makes the fold
// idempotent: a crash between the base write and the run deletes leaves
// stale runs behind, and `RecoverCompaction` sweeps any run at or below the
// watermark (the `overlay.compact` fail-point exercises exactly this tear).
//
// Merge semantics match a cold `VeBlockStore::Build` on the mutated edge
// list (see edge_delta.h): a tombstone removes every live (src, dst) match;
// an insert appends to its source's fragment, creating the fragment at the
// sorted-by-src position if needed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/edge_delta.h"
#include "graph/partition.h"
#include "graph/types.h"
#include "graph/ve_block_store.h"
#include "io/prefetch.h"
#include "io/storage.h"

namespace hybridgraph {

class VeBlockOverlay {
 public:
  // The scan surface is type-identical to the base store so MessagePaths
  // (which declare VeBlockStore::ScanResult locally) compile unchanged.
  using Fragment = VeBlockStore::Fragment;
  using ScanResult = VeBlockStore::ScanResult;
  using EblockIndex = VeBlockStore::EblockIndex;

  /// Per-vertex out-degree adjustments produced by applying a batch; the
  /// caller patches VertexValueStore / driver totals from this so every
  /// store agrees on edge multiplicities.
  using DegreeDeltaMap = ::hybridgraph::DegreeDeltaMap;

  /// Builds the immutable base store plus an empty overlay. With no deltas
  /// applied every operation delegates straight to the base, byte-for-byte —
  /// frozen-graph runs keep their exact modeled I/O.
  static Result<std::unique_ptr<VeBlockOverlay>> Build(
      StorageService* storage, const RangePartition& partition, NodeId node,
      const std::vector<RawEdge>& local_edges,
      const std::vector<uint32_t>& in_degrees);

  // ---- base-compatible read surface (see ve_block_store.h) ----

  /// Scans the merged view of one Eblock cell: base fragments with all live
  /// delta runs applied. Cells without runs delegate to the base store.
  /// Byte accounting covers everything decoded: base blob + every run blob.
  Status ScanEblock(uint32_t src_vb, uint32_t dst_vb, ScanResult* out,
                    ReadPipeline* pipeline = nullptr);

  /// Stages background reads of the base blob and every live run.
  void PrefetchEblock(uint32_t src_vb, uint32_t dst_vb, ReadPipeline* pipeline);

  const VblockMeta& Meta(uint32_t global_vb) const {
    return metas_[LocalVb(global_vb)];
  }
  bool HasEdges(uint32_t src_vb, uint32_t dst_vb) const {
    return metas_[LocalVb(src_vb)].edge_bitmap[dst_vb];
  }
  /// Merged index: `num_fragments` counts live merged fragments (it gates
  /// scans and total_bytes()); `num_edges` and the byte fields count what a
  /// scan actually decodes — base + run entries, tombstones included — so
  /// the hybrid cost model prices the overlay read amplification.
  const EblockIndex& Index(uint32_t src_vb, uint32_t dst_vb) const {
    return index_[LocalVb(src_vb)][dst_vb];
  }

  uint64_t TotalFragments() const { return total_fragments_; }
  uint64_t TotalEdgeBytes() const { return total_edge_bytes_; }
  uint64_t TotalAuxBytes() const { return total_aux_bytes_; }
  uint64_t TotalBytes() const { return total_edge_bytes_ + total_aux_bytes_; }

  /// Scans the inner-adjacency sidecar of a local Vblock: a standalone copy
  /// of the diagonal cell g_{j,j} (every intra-Vblock edge) under its own
  /// key, so local sub-iterations never touch the Eblock grid. Same
  /// encoding, metering (one kSeqRead) and byte split as ScanEblock.
  /// Diagonal-cell mutations rewrite the sidecar compactly at ApplyBatch
  /// time, so this read never pays run overhead.
  Status ScanInner(uint32_t global_vb, ScanResult* out,
                   ReadPipeline* pipeline = nullptr);

  /// Index of the inner sidecar blob (not part of the grid totals).
  const EblockIndex& InnerIndex(uint32_t global_vb) const {
    return inner_index_[LocalVb(global_vb)];
  }

  /// True when local vertex v currently has >= 1 cross-Vblock edge. Exact
  /// under mutation: ApplyBatch adjusts cross-out locally and emits cross-in
  /// deltas for the caller to route to destination owners (AdjustCrossIn),
  /// mirroring the in_degree_delta plumbing.
  bool IsBoundary(VertexId v) const {
    const uint64_t li = v - range_begin_;
    return cross_in_[li] + cross_out_[li] > 0;
  }
  /// Local vertex v's current cross-Vblock out-edge count (0 for inner
  /// vertices). The sub-iteration loop uses this to decide whether a locally
  /// re-updated vertex still needs the global produce sweep.
  uint64_t CrossOutDegree(VertexId v) const {
    return cross_out_[v - range_begin_];
  }

  // ---- streaming surface ----

  /// Applies one batch's local-source deltas: reads each touched cell's
  /// current merged content (metered — ingest cost is proportional to the
  /// touched cells), writes one delta run per cell, and updates the merged
  /// index, Vblock metadata, and edge bitmap. Every delta's source must be
  /// local to this node; order within the batch is preserved per cell.
  /// `degree_delta` (optional) accumulates per-source out-degree changes;
  /// `in_degree_delta` (optional) per-destination in-degree changes, which
  /// the caller routes to the destination owners' AdjustInDegree;
  /// `cross_in_delta` (optional) per-destination *cross-Vblock* in-edge
  /// changes (crossing cells only), which the caller routes to the
  /// destination owners' AdjustCrossIn — without it, boundary/inner
  /// classification of remote-delta destinations goes stale.
  Status ApplyBatch(const std::vector<EdgeDelta>& deltas,
                    DegreeDeltaMap* degree_delta,
                    DegreeDeltaMap* in_degree_delta = nullptr,
                    DegreeDeltaMap* cross_in_delta = nullptr);

  /// Adjusts the in-degree total of a local Vblock's metadata (destinations
  /// of remote-source deltas land here via the epoch driver).
  void AdjustInDegree(uint32_t global_vb, int64_t delta) {
    metas_[LocalVb(global_vb)].in_degree =
        static_cast<uint64_t>(static_cast<int64_t>(
            metas_[LocalVb(global_vb)].in_degree) + delta);
  }

  /// Adjusts local vertex v's cross-Vblock in-edge count (routed here by the
  /// batch applier, like AdjustInDegree) and folds any boundary<->inner flip
  /// into its Vblock's num_boundary.
  void AdjustCrossIn(VertexId v, int64_t delta) {
    ApplyCrossDelta(v, /*out_delta=*/0, /*in_delta=*/delta);
  }

  /// Folds one cell's runs into a fresh base blob, advances the compaction
  /// watermark, then deletes the folded runs. The `overlay.compact`
  /// fail-point fires once on entry and once between the watermark write
  /// and the run deletes (the torn window RecoverCompaction repairs).
  Status Compact(uint32_t src_vb, uint32_t dst_vb);

  /// Compacts every cell holding at least `min_runs` live runs (>= 1).
  Status CompactAll(uint64_t min_runs = 1);

  /// Sweeps runs left behind by a torn compaction: any run blob at or below
  /// its cell's persisted watermark is already folded into the base and is
  /// deleted; the in-memory run list is reconciled with storage.
  Status RecoverCompaction();

  /// Live (unfolded) delta runs across all cells.
  uint64_t DeltaRunCount() const;
  /// Bytes held in live delta runs (the compaction backlog).
  uint64_t DeltaBytes() const;

 private:
  struct DeltaRun {
    uint64_t seq = 0;
    uint32_t num_entries = 0;
    uint64_t aux_bytes = 0;   // count varint share + 5 bytes/entry
    uint64_t edge_bytes = 0;  // 8 bytes/entry
  };
  struct CellDeltas {
    std::vector<DeltaRun> runs;  // live runs, ascending seq
    uint64_t next_seq = 1;
    uint64_t folded_seq = 0;  // persisted watermark (0 = never compacted)
  };
  using CellKey = std::pair<uint32_t, uint32_t>;  // (local src vb, dst vb)

  VeBlockOverlay(StorageService* storage, const RangePartition& partition,
                 NodeId node);

  uint32_t LocalVb(uint32_t global_vb) const { return global_vb - first_vb_; }
  std::string BaseKey(uint32_t src_vb, uint32_t dst_vb) const;
  std::string RunKey(uint32_t src_vb, uint32_t dst_vb, uint64_t seq) const;
  std::string FoldKey(uint32_t src_vb, uint32_t dst_vb) const;
  std::string InnerKey(uint32_t global_vb) const;

  /// Applies cross-edge count deltas to local vertex v, maintaining its
  /// Vblock's num_boundary across the boundary<->inner transition.
  void ApplyCrossDelta(VertexId v, int64_t out_delta, int64_t in_delta);
  /// Writes `merged` as the fragment blob at `key` (deleting the key when
  /// empty) and describes it in `*idx`.
  Status WriteFragmentBlob(const std::string& key,
                           const std::vector<Fragment>& merged,
                           EblockIndex* idx);

  /// The index describing the cell's *current* base blob: the build-time one
  /// until the cell mutates, the compaction result afterwards.
  const EblockIndex& BaseIndexOf(uint32_t src_vb, uint32_t dst_vb) const;
  /// Decodes one delta run blob.
  Status ReadRun(uint32_t src_vb, uint32_t dst_vb, uint64_t seq,
                 std::vector<EdgeDelta>* out, ReadPipeline* pipeline);
  /// Reads base + live runs of a cell and merges into live fragments.
  Status LoadMerged(uint32_t src_vb, uint32_t dst_vb,
                    std::vector<Fragment>* out, ReadPipeline* pipeline);
  /// Applies decoded run entries to a sorted-by-src fragment list.
  static void ApplyEntries(const std::vector<EdgeDelta>& entries,
                           std::vector<Fragment>* fragments,
                           DegreeDeltaMap* degree_delta,
                           DegreeDeltaMap* in_degree_delta);
  /// Replaces a cell's merged index entry and folds the change into the
  /// store-wide totals and the edge bitmap.
  void SetCellIndex(uint32_t src_vb, uint32_t dst_vb, const EblockIndex& idx,
                    uint64_t live_edges);
  /// Merged index for a cell: current base index + live run overhead, with
  /// `num_fragments` overridden to the live merged fragment count.
  EblockIndex MergedIndex(uint32_t src_vb, uint32_t dst_vb,
                          uint64_t live_fragments) const;

  StorageService* storage_;
  const RangePartition* partition_;
  NodeId node_;
  uint32_t first_vb_;
  VertexId range_begin_ = 0;
  std::unique_ptr<VeBlockStore> base_;
  std::vector<VblockMeta> metas_;                // merged, per local vblock
  std::vector<std::vector<EblockIndex>> index_;  // merged, [local][global]
  std::vector<EblockIndex> inner_index_;         // sidecar, per local vblock
  std::vector<uint64_t> cross_out_;  // per local vertex, mutation-current
  std::vector<uint64_t> cross_in_;
  std::map<CellKey, CellDeltas> cells_;
  std::map<CellKey, EblockIndex> base_idx_;  // mutated cells' base blobs
  uint64_t total_fragments_ = 0;
  uint64_t total_edge_bytes_ = 0;
  uint64_t total_aux_bytes_ = 0;
};

}  // namespace hybridgraph
