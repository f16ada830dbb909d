#include "graph/ve_block_store.h"

#include <cstdint>
#include <numeric>

#include "util/string_util.h"

namespace hybridgraph {

VeBlockStore::VeBlockStore(StorageService* storage,
                           const RangePartition& partition, NodeId node)
    : storage_(storage),
      partition_(&partition),
      node_(node),
      first_vb_(partition.FirstVblockOf(node)),
      range_begin_(partition.NodeRange(node).begin) {}

std::string VeBlockStore::EblockKey(uint32_t src_vb, uint32_t dst_vb) const {
  return StringFormat("node%u/eblock/%06u/%06u", node_, src_vb, dst_vb);
}

std::string VeBlockStore::InnerKey(uint32_t global_vb) const {
  return StringFormat("node%u/einner/%06u", node_, global_vb);
}

Result<std::unique_ptr<VeBlockStore>> VeBlockStore::Build(
    StorageService* storage, const RangePartition& partition, NodeId node,
    const std::vector<RawEdge>& local_edges,
    const std::vector<uint32_t>& in_degrees) {
  std::unique_ptr<VeBlockStore> store(
      new VeBlockStore(storage, partition, node));
  HG_RETURN_IF_ERROR(store->Load(local_edges, in_degrees));
  return store;
}

Status VeBlockStore::Load(const std::vector<RawEdge>& local_edges,
                          const std::vector<uint32_t>& in_degrees) {
  const RangePartition& partition = *partition_;
  const VertexRange node_range = partition.NodeRange(node_);
  const uint32_t first_vb = partition.FirstVblockOf(node_);
  const uint32_t last_vb = partition.LastVblockOf(node_);
  const uint32_t num_local = last_vb - first_vb;
  const uint32_t num_global = partition.num_vblocks();

  metas_.resize(num_local);
  index_.assign(num_local, std::vector<EblockIndex>(num_global));

  // Metadata X_j: vertex counts and degree totals.
  for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
    VblockMeta& meta = metas_[vb - first_vb];
    const VertexRange r = partition.VblockRange(vb);
    meta.num_vertices = r.size();
    meta.edge_bitmap.assign(num_global, false);
    for (VertexId v = r.begin; v < r.end; ++v) {
      meta.in_degree += in_degrees[v];
    }
  }

  // Flat O(E) bucketing: a stable counting sort of the edges by source,
  // then a stable placement into (local src Vblock, dst Vblock) cells. Each
  // cell then holds its edges ascending by source with every source's edges
  // in input order — the blob's fragment order.
  //
  // The boundary/inner split falls out of the counting walk: an
  // intra-Vblock edge always has a local source (Vblock ranges nest inside
  // node ranges), so cross_out is counted directly and cross_in = in_degree
  // - intra_in.
  if (local_edges.size() >= UINT32_MAX) {
    return Status::InvalidArgument("too many local edges for one node");
  }
  cross_out_.assign(node_range.size(), 0);
  cross_in_.assign(node_range.size(), 0);
  inner_index_.resize(num_local);
  std::vector<uint64_t> intra_in(node_range.size(), 0);
  std::vector<uint32_t> src_start(size_t{node_range.size()} + 1, 0);
  std::vector<uint32_t> cell_start(size_t{num_local} * num_global + 1, 0);
  for (const RawEdge& e : local_edges) {
    if (!node_range.Contains(e.src)) {
      return Status::InvalidArgument("edge with non-local source in Build");
    }
    const uint32_t src_vb = partition.VblockOf(e.src);
    const uint32_t dst_vb = partition.VblockOf(e.dst);
    ++src_start[e.src - node_range.begin + 1];
    ++cell_start[size_t{src_vb - first_vb} * num_global + dst_vb + 1];
    metas_[src_vb - first_vb].out_degree += 1;
    if (dst_vb == src_vb) {
      intra_in[e.dst - node_range.begin] += 1;
    } else {
      cross_out_[e.src - node_range.begin] += 1;
    }
  }
  std::partial_sum(src_start.begin(), src_start.end(), src_start.begin());
  std::partial_sum(cell_start.begin(), cell_start.end(), cell_start.begin());
  std::vector<uint32_t> order(local_edges.size());
  {
    std::vector<uint32_t> by_src(local_edges.size());
    for (uint32_t i = 0; i < local_edges.size(); ++i) {
      by_src[src_start[local_edges[i].src - node_range.begin]++] = i;
    }
    std::vector<uint32_t> next(cell_start.begin(), cell_start.end() - 1);
    for (const uint32_t i : by_src) {
      const RawEdge& e = local_edges[i];
      order[next[size_t{partition.VblockOf(e.src) - first_vb} * num_global +
                 partition.VblockOf(e.dst)]++] = i;
    }
  }
  for (VertexId v = node_range.begin; v < node_range.end; ++v) {
    const uint64_t li = v - node_range.begin;
    cross_in_[li] = in_degrees[v] - intra_in[li];
  }
  for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
    VblockMeta& meta = metas_[vb - first_vb];
    const VertexRange r = partition.VblockRange(vb);
    for (VertexId v = r.begin; v < r.end; ++v) {
      if (IsBoundary(v)) meta.num_boundary += 1;
    }
  }

  const auto src_at = [&](uint32_t k) { return local_edges[order[k]].src; };
  std::vector<uint8_t> blob;
  for (uint32_t lvb = 0; lvb < num_local; ++lvb) {
    VblockMeta& meta = metas_[lvb];
    for (uint32_t dst_vb = 0; dst_vb < num_global; ++dst_vb) {
      const size_t cell = size_t{lvb} * num_global + dst_vb;
      const uint32_t begin = cell_start[cell];
      const uint32_t end = cell_start[cell + 1];
      if (begin == end) continue;
      meta.edge_bitmap[dst_vb] = true;
      EdgeRunWriter writer(&blob);
      for (uint32_t k = begin; k < end;) {
        uint32_t run_end = k + 1;
        while (run_end < end && src_at(run_end) == src_at(k)) ++run_end;
        writer.AddRun(src_at(k), run_end - k, [&](uint64_t i) {
          const RawEdge& e = local_edges[order[k + i]];
          return Edge{e.dst, e.weight};
        });
        k = run_end;
      }
      writer.FinishFragments();
      const EblockIndex& idx = index_[lvb][dst_vb] = writer.index();
      HG_RETURN_IF_ERROR(storage_->Write(EblockKey(first_vb + lvb, dst_vb),
                                        Slice(blob), IoClass::kSeqWrite));
      if (dst_vb == first_vb + lvb) {
        // Inner-adjacency sidecar: the diagonal cell again under its own key,
        // so intra-Vblock edges are scannable without the Eblock grid. Kept
        // out of the grid totals (TotalFragments feeds Theorem 2).
        HG_RETURN_IF_ERROR(storage_->Write(InnerKey(dst_vb), Slice(blob),
                                          IoClass::kSeqWrite));
        inner_index_[lvb] = idx;
        meta.inner_edges = idx.num_edges;
      }
      total_fragments_ += idx.num_fragments;
      total_edge_bytes_ += idx.edge_bytes;
      total_aux_bytes_ += idx.aux_bytes;
    }
  }
  return Status::OK();
}

Status VeBlockStore::ScanFragmentBlob(ReadPipeline* pipeline,
                                      const std::string& key,
                                      const EblockIndex& idx, VertexRange src,
                                      VertexRange dst, ScanResult* out) {
  out->blob.clear();
  out->src = src;
  out->dst = dst;
  out->aux_bytes = 0;
  out->edge_bytes = 0;
  if (idx.num_fragments == 0) return Status::OK();
  const ReadOptions opts{.io_class = IoClass::kSeqRead};
  auto read = pipeline ? pipeline->Fetch(key, opts) : storage_->Read(key, opts);
  if (!read.ok()) return read.status();
  out->blob = std::move(read->data);
  out->aux_bytes = idx.aux_bytes;
  out->edge_bytes = idx.edge_bytes;
  return Status::OK();
}

Status VeBlockStore::ScanEblock(uint32_t src_vb, uint32_t dst_vb,
                                ScanResult* out, ReadPipeline* pipeline) {
  return ScanFragmentBlob(pipeline, EblockKey(src_vb, dst_vb),
                          Index(src_vb, dst_vb), partition_->VblockRange(src_vb),
                          partition_->VblockRange(dst_vb), out);
}

Status VeBlockStore::ScanInner(uint32_t global_vb, ScanResult* out,
                               ReadPipeline* pipeline) {
  const VertexRange r = partition_->VblockRange(global_vb);
  return ScanFragmentBlob(pipeline, InnerKey(global_vb), InnerIndex(global_vb),
                          r, r, out);
}

void VeBlockStore::PrefetchEblock(uint32_t src_vb, uint32_t dst_vb,
                                  ReadPipeline* pipeline) {
  if (pipeline == nullptr) return;
  if (Index(src_vb, dst_vb).num_fragments == 0) return;
  pipeline->Schedule(EblockKey(src_vb, dst_vb),
                     ReadOptions{.io_class = IoClass::kSeqRead});
}

}  // namespace hybridgraph
