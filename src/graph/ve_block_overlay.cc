#include "graph/ve_block_overlay.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/codec.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace hybridgraph {

namespace {

// Byte split of one run entry, mirroring the base store's aux/edge split:
// flags + src are fragment-auxiliary data, dst + weight are edge payload.
constexpr uint64_t kRunAuxPerEntry = 5;
constexpr uint64_t kRunEdgePerEntry = 8;

/// A run's aux bytes: its count varint plus 5 bytes per entry.
uint64_t RunAuxBytes(uint64_t entries) {
  return VarintLength(entries) + entries * kRunAuxPerEntry;
}

}  // namespace

std::string VeBlockOverlay::RunKey(uint32_t src_vb, uint32_t dst_vb,
                                   uint64_t seq) const {
  return StringFormat("node%u/edelta/%06u/%06u/%06u", node_, src_vb, dst_vb,
                      static_cast<uint32_t>(seq));
}

std::string VeBlockOverlay::FoldKey(uint32_t src_vb, uint32_t dst_vb) const {
  return StringFormat("node%u/efold/%06u/%06u", node_, src_vb, dst_vb);
}

Result<std::unique_ptr<VeBlockOverlay>> VeBlockOverlay::Build(
    StorageService* storage, const RangePartition& partition, NodeId node,
    const std::vector<RawEdge>& local_edges,
    const std::vector<uint32_t>& in_degrees) {
  std::unique_ptr<VeBlockOverlay> overlay(
      new VeBlockOverlay(storage, partition, node));
  HG_RETURN_IF_ERROR(overlay->Load(local_edges, in_degrees));
  return overlay;
}

void VeBlockOverlay::ApplyCrossDelta(VertexId v, int64_t out_delta,
                                     int64_t in_delta) {
  const uint64_t li = v - range_begin_;
  const bool was_boundary = cross_in_[li] + cross_out_[li] > 0;
  cross_out_[li] = static_cast<uint64_t>(
      static_cast<int64_t>(cross_out_[li]) + out_delta);
  cross_in_[li] = static_cast<uint64_t>(
      static_cast<int64_t>(cross_in_[li]) + in_delta);
  const bool is_boundary = cross_in_[li] + cross_out_[li] > 0;
  if (was_boundary != is_boundary) {
    VblockMeta& meta = metas_[LocalVb(partition_->VblockOf(v))];
    meta.num_boundary += is_boundary ? 1 : -1;
  }
}

Status VeBlockOverlay::WriteFragmentBlob(const std::string& key,
                                         const std::vector<uint8_t>& blob,
                                         const EblockIndex& idx) {
  if (idx.num_fragments == 0) {
    return storage_->Exists(key) ? storage_->Delete(key) : Status::OK();
  }
  return storage_->Write(key, Slice(blob), IoClass::kSeqWrite);
}

const VeBlockOverlay::EblockIndex& VeBlockOverlay::BaseIndexOf(
    uint32_t src_vb, uint32_t dst_vb) const {
  auto it = base_idx_.find({LocalVb(src_vb), dst_vb});
  if (it != base_idx_.end()) return it->second;
  return Index(src_vb, dst_vb);
}

Status VeBlockOverlay::ReadRun(uint32_t src_vb, uint32_t dst_vb, uint64_t seq,
                               std::vector<EdgeDelta>* out,
                               ReadPipeline* pipeline) {
  const std::string key = RunKey(src_vb, dst_vb, seq);
  const ReadOptions opts{.io_class = IoClass::kSeqRead};
  auto read = pipeline ? pipeline->Fetch(key, opts) : storage_->Read(key, opts);
  if (!read.ok()) return read.status();
  Decoder dec{Slice(read->data)};
  HG_RETURN_IF_ERROR(DecodeDeltas(&dec, out));
  if (!dec.AtEnd()) return Status::Corruption("trailing bytes in delta run");
  return Status::OK();
}

Status VeBlockOverlay::LoadMerged(uint32_t src_vb, uint32_t dst_vb,
                                  std::vector<uint8_t>* out, EblockIndex* idx,
                                  ReadPipeline* pipeline) {
  // The cell's current base blob (post-compaction aware), then its runs.
  ScanResult base;
  HG_RETURN_IF_ERROR(ScanFragmentBlob(
      pipeline, EblockKey(src_vb, dst_vb), BaseIndexOf(src_vb, dst_vb),
      partition_->VblockRange(src_vb), partition_->VblockRange(dst_vb), &base));
  std::vector<EdgeDelta> entries;
  auto it = cells_.find({LocalVb(src_vb), dst_vb});
  if (it != cells_.end()) {
    for (const DeltaRun& run : it->second.runs) {
      HG_RETURN_IF_ERROR(ReadRun(src_vb, dst_vb, run.seq, &entries, pipeline));
    }
  }
  EdgeRunWriter writer(out);
  HG_RETURN_IF_ERROR(MergeEdgeRuns(base.Walk(), entries, /*keep_empty=*/false,
                                   &writer, nullptr, nullptr));
  writer.FinishFragments();
  *idx = writer.index();
  return Status::OK();
}

void VeBlockOverlay::SetCellIndex(uint32_t src_vb, uint32_t dst_vb,
                                  const EblockIndex& live) {
  // num_fragments counts *live* merged fragments (it gates scans and the
  // cost model's total_bytes); num_edges counts everything a scan decodes,
  // dead base edges and run entries included — the overlay's read
  // amplification, which compaction earns back.
  EblockIndex idx = BaseIndexOf(src_vb, dst_vb);
  idx.num_fragments = live.num_fragments;
  for (const DeltaRun& run : cells_[{LocalVb(src_vb), dst_vb}].runs) {
    idx.num_edges += run.num_entries;
    idx.aux_bytes += RunAuxBytes(run.num_entries);
    idx.edge_bytes += run.num_entries * kRunEdgePerEntry;
  }
  EblockIndex& slot = index_[LocalVb(src_vb)][dst_vb];
  total_fragments_ += idx.num_fragments;
  total_fragments_ -= slot.num_fragments;
  total_edge_bytes_ += idx.edge_bytes;
  total_edge_bytes_ -= slot.edge_bytes;
  total_aux_bytes_ += idx.aux_bytes;
  total_aux_bytes_ -= slot.aux_bytes;
  slot = idx;
  metas_[LocalVb(src_vb)].edge_bitmap[dst_vb] = live.num_edges > 0;
}

Status VeBlockOverlay::ScanEblock(uint32_t src_vb, uint32_t dst_vb,
                                  ScanResult* out, ReadPipeline* pipeline) {
  auto it = cells_.find({LocalVb(src_vb), dst_vb});
  if (it == cells_.end()) {
    // Never-mutated cell: byte-for-byte the frozen-graph read path.
    return VeBlockStore::ScanEblock(src_vb, dst_vb, out, pipeline);
  }
  out->src = partition_->VblockRange(src_vb);
  out->dst = partition_->VblockRange(dst_vb);
  EblockIndex merged;
  HG_RETURN_IF_ERROR(LoadMerged(src_vb, dst_vb, &out->blob, &merged, pipeline));
  const EblockIndex& idx = Index(src_vb, dst_vb);
  out->aux_bytes = idx.aux_bytes;
  out->edge_bytes = idx.edge_bytes;
  return Status::OK();
}

void VeBlockOverlay::PrefetchEblock(uint32_t src_vb, uint32_t dst_vb,
                                    ReadPipeline* pipeline) {
  if (pipeline == nullptr) return;
  auto it = cells_.find({LocalVb(src_vb), dst_vb});
  if (it == cells_.end()) {
    VeBlockStore::PrefetchEblock(src_vb, dst_vb, pipeline);
    return;
  }
  const ReadOptions opts{.io_class = IoClass::kSeqRead};
  if (BaseIndexOf(src_vb, dst_vb).num_fragments > 0) {
    pipeline->Schedule(EblockKey(src_vb, dst_vb), opts);
  }
  for (const DeltaRun& run : it->second.runs) {
    pipeline->Schedule(RunKey(src_vb, dst_vb, run.seq), opts);
  }
}

Status VeBlockOverlay::ApplyBatch(const std::vector<EdgeDelta>& deltas,
                                  DegreeDeltaMap* degree_delta,
                                  DegreeDeltaMap* in_degree_delta,
                                  DegreeDeltaMap* cross_in_delta) {
  const VertexRange node_range = partition_->NodeRange(node_);
  // Group per cell, preserving batch order within each cell. Deltas with
  // the same (src, dst) always share a cell, so cross-cell order is free.
  std::map<CellKey, std::vector<EdgeDelta>> grouped;
  for (const auto& d : deltas) {
    if (!node_range.Contains(d.src)) {
      return Status::InvalidArgument("delta with non-local source in ApplyBatch");
    }
    const uint32_t src_vb = partition_->VblockOf(d.src);
    const uint32_t dst_vb = partition_->VblockOf(d.dst);
    grouped[{LocalVb(src_vb), dst_vb}].push_back(d);
  }

  for (auto& [cell, entries] : grouped) {
    const uint32_t src_vb = first_vb_ + cell.first;
    const uint32_t dst_vb = cell.second;
    // Snapshot the base index before the cell enters the mutated set.
    base_idx_.try_emplace(cell, Index(src_vb, dst_vb));
    // Read-modify bookkeeping: the merged content is needed to track exact
    // live counts under tombstones. Metered — this is the ingest cost, and
    // it touches only this cell.
    std::vector<uint8_t> current;
    EblockIndex current_idx;
    HG_RETURN_IF_ERROR(
        LoadMerged(src_vb, dst_vb, &current, &current_idx, nullptr));
    DegreeDeltaMap cell_deg;
    DegreeDeltaMap cell_in;
    std::vector<uint8_t> merged;
    EdgeRunWriter writer(&merged);
    HG_RETURN_IF_ERROR(MergeEdgeRuns(
        EdgeRunWalker::Fragments(Slice(current), partition_->VblockRange(src_vb),
                                 partition_->VblockRange(dst_vb)),
        entries, /*keep_empty=*/false, &writer, &cell_deg, &cell_in));
    writer.FinishFragments();
    const EblockIndex& merged_idx = writer.index();

    CellDeltas& cd = cells_[cell];
    const uint64_t seq = cd.next_seq++;
    Buffer buf;
    Encoder enc(&buf);
    EncodeDeltas(entries, &enc);
    HG_RETURN_IF_ERROR(storage_->Write(RunKey(src_vb, dst_vb, seq),
                                       buf.AsSlice(), IoClass::kSeqWrite));
    cd.runs.push_back({seq, entries.size()});
    SetCellIndex(src_vb, dst_vb, merged_idx);
    int64_t out_degree_delta = 0;
    for (const auto& [v, dd] : cell_deg) {
      out_degree_delta += dd;
      if (degree_delta != nullptr) (*degree_delta)[v] += dd;
    }
    VblockMeta& meta = metas_[cell.first];
    meta.out_degree = static_cast<uint64_t>(
        static_cast<int64_t>(meta.out_degree) + out_degree_delta);
    if (in_degree_delta != nullptr) {
      for (const auto& [v, dd] : cell_in) (*in_degree_delta)[v] += dd;
    }

    // Boundary/inner reclassification — exact, per touched cell. A crossing
    // cell's out-deltas move local sources' cross-out counts; its in-deltas
    // move destinations' cross-in counts (destinations may be remote, so
    // they are emitted for the caller to route). A diagonal cell changes no
    // cross count (in-degree and intra-in move together) but invalidates the
    // inner-adjacency sidecar, which is rewritten from the merged runs
    // already in hand.
    if (dst_vb != src_vb) {
      for (const auto& [v, dd] : cell_deg) {
        ApplyCrossDelta(v, /*out_delta=*/dd, /*in_delta=*/0);
      }
      if (cross_in_delta != nullptr) {
        for (const auto& [v, dd] : cell_in) (*cross_in_delta)[v] += dd;
      }
    } else {
      HG_RETURN_IF_ERROR(
          WriteFragmentBlob(InnerKey(dst_vb), merged, merged_idx));
      inner_index_[cell.first] = merged_idx;
      meta.inner_edges = merged_idx.num_edges;
    }
  }
  return Status::OK();
}

Status VeBlockOverlay::Compact(uint32_t src_vb, uint32_t dst_vb) {
  HG_FAIL_POINT("overlay.compact");
  auto it = cells_.find({LocalVb(src_vb), dst_vb});
  if (it == cells_.end() || it->second.runs.empty()) return Status::OK();
  CellDeltas& cd = it->second;

  std::vector<uint8_t> merged;
  EblockIndex folded_idx;
  HG_RETURN_IF_ERROR(
      LoadMerged(src_vb, dst_vb, &merged, &folded_idx, nullptr));

  // Fold into a fresh base blob under the base key: the StorageService
  // mutation observer invalidates any staged prefetch of the old bytes.
  HG_RETURN_IF_ERROR(
      WriteFragmentBlob(EblockKey(src_vb, dst_vb), merged, folded_idx));
  base_idx_[{LocalVb(src_vb), dst_vb}] = folded_idx;

  // Durable watermark before the run deletes: a crash past this point
  // leaves runs that are already folded, which RecoverCompaction sweeps.
  const uint64_t folded = cd.runs.back().seq;
  Buffer fold_buf;
  Encoder fold_enc(&fold_buf);
  fold_enc.PutFixed64(folded);
  HG_RETURN_IF_ERROR(storage_->Write(FoldKey(src_vb, dst_vb),
                                     fold_buf.AsSlice(), IoClass::kSeqWrite));
  cd.folded_seq = folded;

  HG_FAIL_POINT("overlay.compact");

  for (const DeltaRun& run : cd.runs) {
    HG_RETURN_IF_ERROR(storage_->Delete(RunKey(src_vb, dst_vb, run.seq)));
  }
  cd.runs.clear();
  SetCellIndex(src_vb, dst_vb, folded_idx);
  return Status::OK();
}

Status VeBlockOverlay::CompactAll(uint64_t min_runs) {
  if (min_runs == 0) min_runs = 1;
  std::vector<CellKey> targets;
  for (const auto& [cell, cd] : cells_) {
    if (cd.runs.size() >= min_runs) targets.push_back(cell);
  }
  for (const CellKey& cell : targets) {
    HG_RETURN_IF_ERROR(Compact(first_vb_ + cell.first, cell.second));
  }
  return Status::OK();
}

Status VeBlockOverlay::RecoverCompaction() {
  // Reconcile in-memory run lists against storage: any run blob at or below
  // its cell's persisted watermark is already folded into the base.
  const std::string prefix = StringFormat("node%u/edelta/", node_);
  std::map<CellKey, std::vector<uint64_t>> on_disk;
  for (const std::string& key : storage_->ListKeys(prefix)) {
    unsigned src_vb = 0, dst_vb = 0, seq = 0;
    if (std::sscanf(key.c_str() + prefix.size(), "%06u/%06u/%06u", &src_vb,
                    &dst_vb, &seq) != 3) {
      return Status::Corruption("unparseable delta run key: " + key);
    }
    on_disk[{LocalVb(src_vb), dst_vb}].push_back(seq);
  }
  for (auto& [cell, cd] : cells_) {
    const uint32_t src_vb = first_vb_ + cell.first;
    const uint32_t dst_vb = cell.second;
    uint64_t folded = cd.folded_seq;
    const std::string fold_key = FoldKey(src_vb, dst_vb);
    if (storage_->Exists(fold_key)) {
      auto read = storage_->Read(fold_key,
                                 ReadOptions{.io_class = IoClass::kSeqRead});
      if (!read.ok()) return read.status();
      Decoder dec{Slice(read->data)};
      HG_RETURN_IF_ERROR(dec.GetFixed64(&folded));
    }
    cd.folded_seq = folded;

    std::vector<uint64_t> keep;
    auto disk_it = on_disk.find(cell);
    if (disk_it != on_disk.end()) {
      std::sort(disk_it->second.begin(), disk_it->second.end());
      for (uint64_t seq : disk_it->second) {
        if (seq <= folded) {
          HG_RETURN_IF_ERROR(storage_->Delete(RunKey(src_vb, dst_vb, seq)));
        } else {
          keep.push_back(seq);
        }
      }
    }
    // Rebuild run metadata for the survivors by re-reading them (metered;
    // recovery is rare), then restore the merged index invariant.
    cd.runs.clear();
    std::vector<EdgeDelta> entries;
    for (uint64_t seq : keep) {
      entries.clear();
      HG_RETURN_IF_ERROR(ReadRun(src_vb, dst_vb, seq, &entries, nullptr));
      cd.runs.push_back({seq, entries.size()});
      cd.next_seq = std::max(cd.next_seq, seq + 1);
    }
    std::vector<uint8_t> merged;
    EblockIndex merged_idx;
    HG_RETURN_IF_ERROR(
        LoadMerged(src_vb, dst_vb, &merged, &merged_idx, nullptr));
    SetCellIndex(src_vb, dst_vb, merged_idx);
  }
  return Status::OK();
}

uint64_t VeBlockOverlay::DeltaRunCount() const {
  uint64_t n = 0;
  for (const auto& [cell, cd] : cells_) n += cd.runs.size();
  return n;
}

uint64_t VeBlockOverlay::DeltaBytes() const {
  uint64_t n = 0;
  for (const auto& [cell, cd] : cells_) {
    for (const DeltaRun& run : cd.runs) {
      n += RunAuxBytes(run.num_entries) + run.num_entries * kRunEdgePerEntry;
    }
  }
  return n;
}

}  // namespace hybridgraph
