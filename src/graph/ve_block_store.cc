#include "graph/ve_block_store.h"

#include <cstdint>
#include <numeric>

#include "util/codec.h"
#include "util/logging.h"
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
  const VertexRange node_range = partition.NodeRange(node);
  const uint32_t first_vb = partition.FirstVblockOf(node);
  const uint32_t last_vb = partition.LastVblockOf(node);
  const uint32_t num_local = last_vb - first_vb;
  const uint32_t num_global = partition.num_vblocks();

  store->metas_.resize(num_local);
  store->index_.assign(num_local, std::vector<EblockIndex>(num_global));

  // Metadata X_j: vertex counts and degree totals.
  for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
    VblockMeta& meta = store->metas_[vb - first_vb];
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
  store->cross_out_.assign(node_range.size(), 0);
  store->cross_in_.assign(node_range.size(), 0);
  store->inner_index_.resize(num_local);
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
    store->metas_[src_vb - first_vb].out_degree += 1;
    if (dst_vb == src_vb) {
      intra_in[e.dst - node_range.begin] += 1;
    } else {
      store->cross_out_[e.src - node_range.begin] += 1;
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
    store->cross_in_[li] = in_degrees[v] - intra_in[li];
  }
  for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
    VblockMeta& meta = store->metas_[vb - first_vb];
    const VertexRange r = partition.VblockRange(vb);
    for (VertexId v = r.begin; v < r.end; ++v) {
      if (store->IsBoundary(v)) meta.num_boundary += 1;
    }
  }

  const auto src_at = [&](uint32_t k) { return local_edges[order[k]].src; };
  Buffer buf;
  for (uint32_t lvb = 0; lvb < num_local; ++lvb) {
    VblockMeta& meta = store->metas_[lvb];
    for (uint32_t dst_vb = 0; dst_vb < num_global; ++dst_vb) {
      const size_t cell = size_t{lvb} * num_global + dst_vb;
      const uint32_t begin = cell_start[cell];
      const uint32_t end = cell_start[cell + 1];
      if (begin == end) continue;
      meta.edge_bitmap[dst_vb] = true;
      uint64_t num_fragments = 1;
      for (uint32_t k = begin + 1; k < end; ++k) {
        num_fragments += src_at(k) != src_at(k - 1);
      }
      buf.Clear();
      Encoder enc(&buf);
      EblockIndex& idx = store->index_[lvb][dst_vb];
      enc.PutVarint64(num_fragments);
      idx.aux_bytes += VarintLength(num_fragments);
      for (uint32_t k = begin; k < end;) {
        const VertexId src = src_at(k);
        uint32_t run_end = k + 1;
        while (run_end < end && src_at(run_end) == src) ++run_end;
        const uint64_t n = run_end - k;
        enc.PutFixed32(src);
        enc.PutVarint64(n);
        idx.aux_bytes += 4 + VarintLength(n);
        for (; k < run_end; ++k) {
          enc.PutFixed32(local_edges[order[k]].dst);
          enc.PutFloat(local_edges[order[k]].weight);
        }
        idx.edge_bytes += n * kEdgeEncodedSize;
        idx.num_edges += n;
        ++idx.num_fragments;
      }
      HG_RETURN_IF_ERROR(storage->Write(store->EblockKey(first_vb + lvb, dst_vb),
                                        buf.AsSlice(), IoClass::kSeqWrite));
      if (dst_vb == first_vb + lvb) {
        // Inner-adjacency sidecar: the diagonal cell again under its own key,
        // so intra-Vblock edges are scannable without the Eblock grid. Kept
        // out of the grid totals (TotalFragments feeds Theorem 2).
        HG_RETURN_IF_ERROR(storage->Write(store->InnerKey(dst_vb),
                                          buf.AsSlice(), IoClass::kSeqWrite));
        store->inner_index_[lvb] = idx;
        meta.inner_edges = idx.num_edges;
      }
      store->total_fragments_ += idx.num_fragments;
      store->total_edge_bytes_ += idx.edge_bytes;
      store->total_aux_bytes_ += idx.aux_bytes;
    }
  }
  return store;
}

Status VeBlockStore::DecodeFragments(Slice blob, std::vector<Fragment>* out) {
  Decoder dec(blob);
  uint64_t num_fragments = 0;
  // A fragment is at least 5 bytes (src + count varint) and an edge exactly
  // kEdgeEncodedSize, so a count the remaining bytes cannot hold is corrupt.
  if (!dec.GetVarint64(&num_fragments).ok() ||
      num_fragments > dec.remaining() / 5) {
    return Status::Corruption("fragment count exceeds blob size");
  }
  out->resize(num_fragments);
  for (Fragment& frag : *out) {
    uint64_t count = 0;
    if (!dec.GetFixed32(&frag.src).ok() || !dec.GetVarint64(&count).ok() ||
        count > dec.remaining() / kEdgeEncodedSize) {
      return Status::Corruption("truncated fragment in blob");
    }
    frag.edges.resize(count);
    for (Edge& e : frag.edges) {
      HG_RETURN_IF_ERROR(dec.GetFixed32(&e.dst));
      HG_RETURN_IF_ERROR(dec.GetFloat(&e.weight));
    }
  }
  if (!dec.AtEnd()) return Status::Corruption("trailing bytes in fragment");
  return Status::OK();
}

Status VeBlockStore::ScanFragmentBlob(StorageService* storage,
                                      ReadPipeline* pipeline,
                                      const std::string& key,
                                      const EblockIndex& idx,
                                      ScanResult* out) {
  out->aux_bytes = 0;
  out->edge_bytes = 0;
  if (idx.num_fragments == 0) {
    out->fragments.clear();
    return Status::OK();
  }
  const ReadOptions opts{.io_class = IoClass::kSeqRead};
  auto read = pipeline ? pipeline->Fetch(key, opts) : storage->Read(key, opts);
  if (!read.ok()) return read.status();
  HG_RETURN_IF_ERROR(DecodeFragments(Slice(read->data), &out->fragments));
  out->aux_bytes = idx.aux_bytes;
  out->edge_bytes = idx.edge_bytes;
  return Status::OK();
}

Status VeBlockStore::ScanEblock(uint32_t src_vb, uint32_t dst_vb,
                                ScanResult* out, ReadPipeline* pipeline) {
  return ScanFragmentBlob(storage_, pipeline, EblockKey(src_vb, dst_vb),
                          Index(src_vb, dst_vb), out);
}

void VeBlockStore::PrefetchEblock(uint32_t src_vb, uint32_t dst_vb,
                                  ReadPipeline* pipeline) {
  if (pipeline == nullptr) return;
  if (Index(src_vb, dst_vb).num_fragments == 0) return;
  pipeline->Schedule(EblockKey(src_vb, dst_vb),
                     ReadOptions{.io_class = IoClass::kSeqRead});
}

}  // namespace hybridgraph
