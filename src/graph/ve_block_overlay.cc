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

uint64_t LiveEdges(const std::vector<VeBlockStore::Fragment>& fragments) {
  uint64_t n = 0;
  for (const auto& f : fragments) n += f.edges.size();
  return n;
}

}  // namespace

VeBlockOverlay::VeBlockOverlay(StorageService* storage,
                               const RangePartition& partition, NodeId node)
    : storage_(storage),
      partition_(&partition),
      node_(node),
      first_vb_(partition.FirstVblockOf(node)),
      range_begin_(partition.NodeRange(node).begin) {}

// Must match VeBlockStore::EblockKey — compaction rewrites the base blob in
// place under the same key.
std::string VeBlockOverlay::BaseKey(uint32_t src_vb, uint32_t dst_vb) const {
  return StringFormat("node%u/eblock/%06u/%06u", node_, src_vb, dst_vb);
}

std::string VeBlockOverlay::RunKey(uint32_t src_vb, uint32_t dst_vb,
                                   uint64_t seq) const {
  return StringFormat("node%u/edelta/%06u/%06u/%06u", node_, src_vb, dst_vb,
                      static_cast<uint32_t>(seq));
}

std::string VeBlockOverlay::FoldKey(uint32_t src_vb, uint32_t dst_vb) const {
  return StringFormat("node%u/efold/%06u/%06u", node_, src_vb, dst_vb);
}

// Must match VeBlockStore::InnerKey — diagonal-cell mutations rewrite the
// build-time sidecar blob in place.
std::string VeBlockOverlay::InnerKey(uint32_t global_vb) const {
  return StringFormat("node%u/einner/%06u", node_, global_vb);
}

Result<std::unique_ptr<VeBlockOverlay>> VeBlockOverlay::Build(
    StorageService* storage, const RangePartition& partition, NodeId node,
    const std::vector<RawEdge>& local_edges,
    const std::vector<uint32_t>& in_degrees) {
  auto base = VeBlockStore::Build(storage, partition, node, local_edges,
                                  in_degrees);
  if (!base.ok()) return base.status();
  std::unique_ptr<VeBlockOverlay> overlay(
      new VeBlockOverlay(storage, partition, node));
  overlay->base_ = std::move(*base);

  const uint32_t first_vb = partition.FirstVblockOf(node);
  const uint32_t last_vb = partition.LastVblockOf(node);
  const uint32_t num_global = partition.num_vblocks();
  overlay->metas_.reserve(last_vb - first_vb);
  overlay->index_.assign(last_vb - first_vb,
                         std::vector<EblockIndex>(num_global));
  for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
    overlay->metas_.push_back(overlay->base_->Meta(vb));
    for (uint32_t dst = 0; dst < num_global; ++dst) {
      overlay->index_[vb - first_vb][dst] = overlay->base_->Index(vb, dst);
    }
  }
  overlay->total_fragments_ = overlay->base_->TotalFragments();
  overlay->total_edge_bytes_ = overlay->base_->TotalEdgeBytes();
  overlay->total_aux_bytes_ = overlay->base_->TotalAuxBytes();
  // Seed the mutable boundary/inner classification from the build-time one.
  overlay->cross_out_ = overlay->base_->CrossOutCounts();
  overlay->cross_in_ = overlay->base_->CrossInCounts();
  overlay->inner_index_.resize(last_vb - first_vb);
  for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
    overlay->inner_index_[vb - first_vb] = overlay->base_->InnerIndex(vb);
  }
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
                                         const std::vector<Fragment>& merged,
                                         EblockIndex* idx) {
  *idx = EblockIndex{};
  if (merged.empty()) {
    return storage_->Exists(key) ? storage_->Delete(key) : Status::OK();
  }
  Buffer buf;
  Encoder enc(&buf);
  enc.PutVarint64(merged.size());
  idx->aux_bytes += VarintLength(merged.size());
  for (const auto& frag : merged) {
    enc.PutFixed32(frag.src);
    enc.PutVarint64(frag.edges.size());
    idx->aux_bytes += 4 + VarintLength(frag.edges.size());
    for (const auto& edge : frag.edges) {
      enc.PutFixed32(edge.dst);
      enc.PutFloat(edge.weight);
    }
    idx->edge_bytes += frag.edges.size() * kEdgeEncodedSize;
    idx->num_edges += frag.edges.size();
    ++idx->num_fragments;
  }
  return storage_->Write(key, buf.AsSlice(), IoClass::kSeqWrite);
}

Status VeBlockOverlay::ScanInner(uint32_t global_vb, ScanResult* out,
                                 ReadPipeline* pipeline) {
  return VeBlockStore::ScanFragmentBlob(storage_, pipeline, InnerKey(global_vb),
                                        inner_index_[LocalVb(global_vb)], out);
}

const VeBlockOverlay::EblockIndex& VeBlockOverlay::BaseIndexOf(
    uint32_t src_vb, uint32_t dst_vb) const {
  auto it = base_idx_.find({LocalVb(src_vb), dst_vb});
  if (it != base_idx_.end()) return it->second;
  return base_->Index(src_vb, dst_vb);
}

Status VeBlockOverlay::ReadRun(uint32_t src_vb, uint32_t dst_vb, uint64_t seq,
                               std::vector<EdgeDelta>* out,
                               ReadPipeline* pipeline) {
  out->clear();
  const std::string key = RunKey(src_vb, dst_vb, seq);
  const ReadOptions opts{.io_class = IoClass::kSeqRead};
  auto read = pipeline ? pipeline->Fetch(key, opts) : storage_->Read(key, opts);
  if (!read.ok()) return read.status();
  Decoder dec{Slice(read->data)};
  uint64_t count = 0;
  HG_RETURN_IF_ERROR(dec.GetVarint64(&count));
  if (count > dec.remaining() / (kRunAuxPerEntry + kRunEdgePerEntry)) {
    return Status::Corruption("delta run count exceeds blob size");
  }
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    EdgeDelta d;
    uint8_t flags = 0;
    HG_RETURN_IF_ERROR(dec.GetU8(&flags));
    HG_RETURN_IF_ERROR(dec.GetFixed32(&d.src));
    HG_RETURN_IF_ERROR(dec.GetFixed32(&d.dst));
    HG_RETURN_IF_ERROR(dec.GetFloat(&d.weight));
    d.is_delete = (flags & 1) != 0;
    out->push_back(d);
  }
  if (!dec.AtEnd()) return Status::Corruption("trailing bytes in delta run");
  return Status::OK();
}

void VeBlockOverlay::ApplyEntries(const std::vector<EdgeDelta>& entries,
                                  std::vector<Fragment>* fragments,
                                  DegreeDeltaMap* degree_delta,
                                  DegreeDeltaMap* in_degree_delta) {
  for (const auto& d : entries) {
    auto pos = std::lower_bound(
        fragments->begin(), fragments->end(), d.src,
        [](const Fragment& f, VertexId src) { return f.src < src; });
    if (d.is_delete) {
      if (pos == fragments->end() || pos->src != d.src) continue;
      const size_t before = pos->edges.size();
      pos->edges.erase(
          std::remove_if(pos->edges.begin(), pos->edges.end(),
                         [&](const Edge& e) { return e.dst == d.dst; }),
          pos->edges.end());
      const size_t removed = before - pos->edges.size();
      if (removed > 0) {
        if (degree_delta != nullptr) {
          (*degree_delta)[d.src] -= static_cast<int64_t>(removed);
        }
        if (in_degree_delta != nullptr) {
          (*in_degree_delta)[d.dst] -= static_cast<int64_t>(removed);
        }
      }
      if (pos->edges.empty()) fragments->erase(pos);
    } else {
      if (pos == fragments->end() || pos->src != d.src) {
        pos = fragments->insert(pos, Fragment{d.src, {}});
      }
      pos->edges.push_back({d.dst, d.weight});
      if (degree_delta != nullptr) (*degree_delta)[d.src] += 1;
      if (in_degree_delta != nullptr) (*in_degree_delta)[d.dst] += 1;
    }
  }
}

Status VeBlockOverlay::LoadMerged(uint32_t src_vb, uint32_t dst_vb,
                                  std::vector<Fragment>* out,
                                  ReadPipeline* pipeline) {
  // The cell's current base blob (post-compaction aware), then its runs.
  ScanResult base;
  HG_RETURN_IF_ERROR(VeBlockStore::ScanFragmentBlob(
      storage_, pipeline, BaseKey(src_vb, dst_vb), BaseIndexOf(src_vb, dst_vb),
      &base));
  out->swap(base.fragments);
  auto it = cells_.find({LocalVb(src_vb), dst_vb});
  if (it == cells_.end()) return Status::OK();
  std::vector<EdgeDelta> entries;
  for (const DeltaRun& run : it->second.runs) {
    HG_RETURN_IF_ERROR(ReadRun(src_vb, dst_vb, run.seq, &entries, pipeline));
    ApplyEntries(entries, out, nullptr, nullptr);
  }
  return Status::OK();
}

VeBlockOverlay::EblockIndex VeBlockOverlay::MergedIndex(
    uint32_t src_vb, uint32_t dst_vb, uint64_t live_fragments) const {
  EblockIndex idx = BaseIndexOf(src_vb, dst_vb);
  auto it = cells_.find({LocalVb(src_vb), dst_vb});
  if (it != cells_.end()) {
    for (const DeltaRun& run : it->second.runs) {
      idx.num_edges += run.num_entries;
      idx.aux_bytes += run.aux_bytes;
      idx.edge_bytes += run.edge_bytes;
    }
  }
  // num_fragments counts *live* merged fragments (it gates scans and the
  // cost model's total_bytes); num_edges counts everything a scan decodes,
  // dead base edges and run entries included — the overlay's read
  // amplification, which compaction earns back.
  idx.num_fragments = static_cast<uint32_t>(live_fragments);
  return idx;
}

void VeBlockOverlay::SetCellIndex(uint32_t src_vb, uint32_t dst_vb,
                                  const EblockIndex& idx,
                                  uint64_t live_edges) {
  EblockIndex& slot = index_[LocalVb(src_vb)][dst_vb];
  total_fragments_ += idx.num_fragments;
  total_fragments_ -= slot.num_fragments;
  total_edge_bytes_ += idx.edge_bytes;
  total_edge_bytes_ -= slot.edge_bytes;
  total_aux_bytes_ += idx.aux_bytes;
  total_aux_bytes_ -= slot.aux_bytes;
  slot = idx;
  metas_[LocalVb(src_vb)].edge_bitmap[dst_vb] = live_edges > 0;
}

Status VeBlockOverlay::ScanEblock(uint32_t src_vb, uint32_t dst_vb,
                                  ScanResult* out, ReadPipeline* pipeline) {
  auto it = cells_.find({LocalVb(src_vb), dst_vb});
  if (it == cells_.end()) {
    // Never-mutated cell: byte-for-byte the frozen-graph read path.
    return base_->ScanEblock(src_vb, dst_vb, out, pipeline);
  }
  out->aux_bytes = 0;
  out->edge_bytes = 0;
  const EblockIndex& idx = Index(src_vb, dst_vb);
  const EblockIndex& bidx = BaseIndexOf(src_vb, dst_vb);
  if (bidx.num_fragments == 0 && it->second.runs.empty()) {
    out->fragments.clear();
    return Status::OK();
  }
  HG_RETURN_IF_ERROR(LoadMerged(src_vb, dst_vb, &out->fragments, pipeline));
  out->aux_bytes = idx.aux_bytes;
  out->edge_bytes = idx.edge_bytes;
  return Status::OK();
}

void VeBlockOverlay::PrefetchEblock(uint32_t src_vb, uint32_t dst_vb,
                                    ReadPipeline* pipeline) {
  if (pipeline == nullptr) return;
  auto it = cells_.find({LocalVb(src_vb), dst_vb});
  if (it == cells_.end()) {
    base_->PrefetchEblock(src_vb, dst_vb, pipeline);
    return;
  }
  const ReadOptions opts{.io_class = IoClass::kSeqRead};
  if (BaseIndexOf(src_vb, dst_vb).num_fragments > 0) {
    pipeline->Schedule(BaseKey(src_vb, dst_vb), opts);
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
    if (base_idx_.find(cell) == base_idx_.end()) {
      base_idx_[cell] = base_->Index(src_vb, dst_vb);
    }
    // Read-modify bookkeeping: the merged content is needed to track exact
    // live counts under tombstones. Metered — this is the ingest cost, and
    // it touches only this cell.
    std::vector<Fragment> merged;
    HG_RETURN_IF_ERROR(LoadMerged(src_vb, dst_vb, &merged, nullptr));
    DegreeDeltaMap cell_deg;
    DegreeDeltaMap cell_in;
    ApplyEntries(entries, &merged, &cell_deg, &cell_in);

    CellDeltas& cd = cells_[cell];
    const uint64_t seq = cd.next_seq++;
    Buffer buf;
    Encoder enc(&buf);
    enc.PutVarint64(entries.size());
    for (const auto& d : entries) {
      enc.PutU8(d.is_delete ? 1 : 0);
      enc.PutFixed32(d.src);
      enc.PutFixed32(d.dst);
      enc.PutFloat(d.weight);
    }
    HG_RETURN_IF_ERROR(storage_->Write(RunKey(src_vb, dst_vb, seq),
                                       buf.AsSlice(), IoClass::kSeqWrite));
    DeltaRun run;
    run.seq = seq;
    run.num_entries = static_cast<uint32_t>(entries.size());
    run.aux_bytes = VarintLength(entries.size()) +
                    entries.size() * kRunAuxPerEntry;
    run.edge_bytes = entries.size() * kRunEdgePerEntry;
    cd.runs.push_back(run);

    SetCellIndex(src_vb, dst_vb, MergedIndex(src_vb, dst_vb, merged.size()),
                 LiveEdges(merged));
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
    // inner-adjacency sidecar, which is rewritten from the merged fragments
    // already in hand.
    if (dst_vb != src_vb) {
      for (const auto& [v, dd] : cell_deg) {
        ApplyCrossDelta(v, /*out_delta=*/dd, /*in_delta=*/0);
      }
      if (cross_in_delta != nullptr) {
        for (const auto& [v, dd] : cell_in) (*cross_in_delta)[v] += dd;
      }
    } else {
      EblockIndex inner;
      HG_RETURN_IF_ERROR(WriteFragmentBlob(InnerKey(dst_vb), merged, &inner));
      inner_index_[cell.first] = inner;
      meta.inner_edges = inner.num_edges;
    }
  }
  return Status::OK();
}

Status VeBlockOverlay::Compact(uint32_t src_vb, uint32_t dst_vb) {
  HG_FAIL_POINT("overlay.compact");
  auto it = cells_.find({LocalVb(src_vb), dst_vb});
  if (it == cells_.end() || it->second.runs.empty()) return Status::OK();
  CellDeltas& cd = it->second;

  std::vector<Fragment> merged;
  HG_RETURN_IF_ERROR(LoadMerged(src_vb, dst_vb, &merged, nullptr));

  // Fold into a fresh base blob under the base key: the StorageService
  // mutation observer invalidates any staged prefetch of the old bytes.
  EblockIndex folded_idx;
  HG_RETURN_IF_ERROR(
      WriteFragmentBlob(BaseKey(src_vb, dst_vb), merged, &folded_idx));
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
  SetCellIndex(src_vb, dst_vb,
               MergedIndex(src_vb, dst_vb, folded_idx.num_fragments),
               folded_idx.num_edges);
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
      HG_RETURN_IF_ERROR(ReadRun(src_vb, dst_vb, seq, &entries, nullptr));
      DeltaRun run;
      run.seq = seq;
      run.num_entries = static_cast<uint32_t>(entries.size());
      run.aux_bytes = VarintLength(entries.size()) +
                      entries.size() * kRunAuxPerEntry;
      run.edge_bytes = entries.size() * kRunEdgePerEntry;
      cd.runs.push_back(run);
      cd.next_seq = std::max(cd.next_seq, seq + 1);
    }
    std::vector<Fragment> merged;
    HG_RETURN_IF_ERROR(LoadMerged(src_vb, dst_vb, &merged, nullptr));
    SetCellIndex(src_vb, dst_vb, MergedIndex(src_vb, dst_vb, merged.size()),
                 LiveEdges(merged));
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
    for (const DeltaRun& run : cd.runs) n += run.aux_bytes + run.edge_bytes;
  }
  return n;
}

}  // namespace hybridgraph
