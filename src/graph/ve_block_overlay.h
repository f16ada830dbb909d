// Mutable overlay over the immutable VE-BLOCK base store (the PartitionedVC
// direction): edge mutations land as per-Eblock-cell *delta runs* — small
// sorted-by-arrival blobs of inserts and tombstones — and every scan merges
// the cell's base runs with them through MergeEdgeRuns (edge_runs.h), so all
// MessagePath strategies observe the mutated graph without knowing it
// mutated. An epoch's modeled I/O scales with the touched cells, not |E|.
//
// Storage layout (all through StorageService writes, whose mutation
// observers invalidate any staged ReadPipeline prefetch):
//
//   node%u/eblock/%06u/%06u        base Eblock (VeBlockStore::EblockKey)
//   node%u/edelta/%06u/%06u/%06u   delta run, per-cell sequence number
//   node%u/efold/%06u/%06u         compaction watermark: runs with
//                                  seq <= folded are already in the base
//
// A run is the delta list of edge_delta.h (EncodeDeltas). Its cost split
// mirrors the base store: the count varint + 5 bytes/entry (flags + src) are
// aux, 8 bytes/entry edge payload — tombstoned and superseded entries are
// still decoded on every scan, the paper's "useless edges in a block are
// still scanned" accounting, which compaction earns back.
//
// `Compact` folds base + runs into a fresh base blob, advances the
// watermark, then deletes the folded runs. The watermark makes the fold
// idempotent: a crash between the base write and the run deletes leaves
// stale runs, which `RecoverCompaction` sweeps (the `overlay.compact`
// fail-point exercises exactly this tear). Merged scans equal a cold
// `VeBlockStore::Build` on the mutated edge list, byte for byte.
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

/// Every table the base store exposes (Meta, HasEdges, Index, InnerIndex,
/// IsBoundary, CrossOutDegree and the totals) is kept current under
/// mutation. `Index(s, d).num_fragments` counts live merged fragments (it
/// gates scans and total_bytes()); `num_edges` and the byte fields count what
/// a scan actually decodes — base + run entries, tombstones included — so
/// the hybrid cost model prices the overlay read amplification. The
/// boundary/inner split stays exact: ApplyBatch adjusts cross-out counts
/// locally and emits cross-in deltas for the caller to route to the
/// destination owners' AdjustCrossIn.
class VeBlockOverlay : public VeBlockStore {
 public:
  /// Per-vertex out-degree adjustments produced by applying a batch; the
  /// caller patches VertexValueStore / driver totals from this so every
  /// store agrees on edge multiplicities.
  using DegreeDeltaMap = ::hybridgraph::DegreeDeltaMap;

  /// Builds the immutable base store plus an empty overlay. With no deltas
  /// applied every operation is the base store's, byte-for-byte — frozen-
  /// graph runs keep their exact modeled I/O.
  static Result<std::unique_ptr<VeBlockOverlay>> Build(
      StorageService* storage, const RangePartition& partition, NodeId node,
      const std::vector<RawEdge>& local_edges,
      const std::vector<uint32_t>& in_degrees);

  /// Scans the merged view of one Eblock cell: the merged runs, written into
  /// the scan buffer. Cells without runs are the base store's scan. Byte
  /// accounting covers everything decoded: base blob + every run blob.
  /// Diagonal-cell mutations rewrite the inner sidecar compactly at
  /// ApplyBatch time, so ScanInner never pays run overhead.
  Status ScanEblock(uint32_t src_vb, uint32_t dst_vb, ScanResult* out,
                    ReadPipeline* pipeline = nullptr) override;

  /// Stages background reads of the base blob and every live run.
  void PrefetchEblock(uint32_t src_vb, uint32_t dst_vb,
                      ReadPipeline* pipeline) override;

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
    uint64_t num_entries = 0;
  };
  struct CellDeltas {
    std::vector<DeltaRun> runs;  // live runs, ascending seq
    uint64_t next_seq = 1;
    uint64_t folded_seq = 0;  // persisted watermark (0 = never compacted)
  };
  using CellKey = std::pair<uint32_t, uint32_t>;  // (local src vb, dst vb)

  using VeBlockStore::VeBlockStore;

  std::string RunKey(uint32_t src_vb, uint32_t dst_vb, uint64_t seq) const;
  std::string FoldKey(uint32_t src_vb, uint32_t dst_vb) const;

  /// Applies cross-edge count deltas to local vertex v, maintaining its
  /// Vblock's num_boundary across the boundary<->inner transition.
  void ApplyCrossDelta(VertexId v, int64_t out_delta, int64_t in_delta);
  /// Stores the fragment blob `blob` described by `idx` at `key`, deleting
  /// the key instead when the blob has no runs.
  Status WriteFragmentBlob(const std::string& key,
                           const std::vector<uint8_t>& blob,
                           const EblockIndex& idx);

  /// The index describing the cell's *current* base blob: the build-time one
  /// until the cell mutates, the compaction result afterwards.
  const EblockIndex& BaseIndexOf(uint32_t src_vb, uint32_t dst_vb) const;
  /// Decodes one delta run blob, appending its entries to `*out`.
  Status ReadRun(uint32_t src_vb, uint32_t dst_vb, uint64_t seq,
                 std::vector<EdgeDelta>* out, ReadPipeline* pipeline);
  /// Reads base + live runs of a cell and merges them into the fragment
  /// blob `*out` of the live runs, described by `*idx`.
  Status LoadMerged(uint32_t src_vb, uint32_t dst_vb, std::vector<uint8_t>* out,
                    EblockIndex* idx, ReadPipeline* pipeline);
  /// Sets a cell's merged index — the current base index plus its live
  /// runs' bytes, with the fragment count of `live` (the merged runs) — and
  /// folds the change into the store-wide totals and the edge bitmap.
  void SetCellIndex(uint32_t src_vb, uint32_t dst_vb, const EblockIndex& live);

  std::map<CellKey, CellDeltas> cells_;
  std::map<CellKey, EblockIndex> base_idx_;  // mutated cells' base blobs
};

}  // namespace hybridgraph
