#include "graph/adjacency_store.h"

#include <map>
#include <numeric>

#include "util/string_util.h"

namespace hybridgraph {

AdjacencyStore::AdjacencyStore(StorageService* storage,
                               const RangePartition& partition, NodeId node)
    : storage_(storage), partition_(&partition), node_(node) {}

std::string AdjacencyStore::BlockKey(uint32_t global_vb) const {
  return StringFormat("node%u/adj/%06u", node_, global_vb);
}

uint32_t AdjacencyStore::LocalVb(uint32_t global_vb) const {
  return global_vb - partition_->FirstVblockOf(node_);
}

Result<std::unique_ptr<AdjacencyStore>> AdjacencyStore::Build(
    StorageService* storage, const RangePartition& partition, NodeId node,
    const std::vector<RawEdge>& local_edges) {
  std::unique_ptr<AdjacencyStore> store(
      new AdjacencyStore(storage, partition, node));
  const VertexRange node_range = partition.NodeRange(node);

  // A stable counting sort by source: each vertex's out-edges end up
  // contiguous, in input order.
  std::vector<uint64_t> start(size_t{node_range.size()} + 1, 0);
  for (const auto& e : local_edges) {
    if (!node_range.Contains(e.src)) {
      return Status::InvalidArgument("edge with non-local source in Build");
    }
    ++start[e.src - node_range.begin + 1];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<Edge> by_src(local_edges.size());
  {
    std::vector<uint64_t> next(start.begin(), start.end() - 1);
    for (const auto& e : local_edges) {
      by_src[next[e.src - node_range.begin]++] = {e.dst, e.weight};
    }
  }

  const uint32_t first_vb = partition.FirstVblockOf(node);
  const uint32_t last_vb = partition.LastVblockOf(node);
  store->blocks_.resize(last_vb - first_vb);

  std::vector<uint8_t> block;
  for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
    const VertexRange r = partition.VblockRange(vb);
    EdgeRunWriter writer(&block);
    for (VertexId v = r.begin; v < r.end; ++v) {
      const uint64_t first = start[v - node_range.begin];
      writer.AddRun(v, start[v - node_range.begin + 1] - first,
                    [&](uint64_t i) { return by_src[first + i]; });
    }
    HG_RETURN_IF_ERROR(
        storage->Write(store->BlockKey(vb), Slice(block), IoClass::kSeqWrite));
    store->blocks_[vb - first_vb] = writer.index();
  }
  return store;
}

Status AdjacencyStore::ReadBlock(uint32_t global_vb,
                                 std::vector<uint8_t>* block,
                                 ReadPipeline* pipeline) {
  const std::string key = BlockKey(global_vb);
  const ReadOptions opts{.io_class = IoClass::kSeqRead};
  auto read = pipeline ? pipeline->Fetch(key, opts) : storage_->Read(key, opts);
  if (!read.ok()) return read.status();
  *block = std::move(read->data);
  return Status::OK();
}

EdgeRunWalker AdjacencyStore::Walk(uint32_t global_vb, Slice block) const {
  return EdgeRunWalker::Adjacency(
      block, partition_->VblockRange(global_vb),
      {0, static_cast<VertexId>(partition_->num_vertices())});
}

void AdjacencyStore::PrefetchBlock(uint32_t global_vb, ReadPipeline* pipeline) {
  if (pipeline == nullptr) return;
  pipeline->Schedule(BlockKey(global_vb),
                     ReadOptions{.io_class = IoClass::kSeqRead});
}

Status AdjacencyStore::ApplyBatch(const std::vector<EdgeDelta>& deltas,
                                  DegreeDeltaMap* degree_delta) {
  const VertexRange node_range = partition_->NodeRange(node_);
  // Group per touched block, preserving batch order (deltas with the same
  // (src, dst) always share a block, so cross-block order is free).
  std::map<uint32_t, std::vector<EdgeDelta>> grouped;
  for (const auto& d : deltas) {
    if (!node_range.Contains(d.src)) {
      return Status::InvalidArgument("delta with non-local source in ApplyBatch");
    }
    grouped[partition_->VblockOf(d.src)].push_back(d);
  }
  std::vector<uint8_t> block;
  std::vector<uint8_t> merged;
  for (auto& [vb, entries] : grouped) {
    HG_RETURN_IF_ERROR(ReadBlock(vb, &block, nullptr));
    EdgeRunWriter writer(&merged);
    HG_RETURN_IF_ERROR(MergeEdgeRuns(Walk(vb, Slice(block)), entries,
                                     /*keep_empty=*/true, &writer,
                                     degree_delta, nullptr));
    HG_RETURN_IF_ERROR(
        storage_->Write(BlockKey(vb), Slice(merged), IoClass::kSeqWrite));
    blocks_[LocalVb(vb)] = writer.index();
  }
  return Status::OK();
}

uint64_t AdjacencyStore::BlockBytes(uint32_t global_vb) const {
  const EblockIndex& b = blocks_[LocalVb(global_vb)];
  return b.aux_bytes + b.edge_bytes;
}

uint64_t AdjacencyStore::BlockEdges(uint32_t global_vb) const {
  return blocks_[LocalVb(global_vb)].num_edges;
}

uint64_t AdjacencyStore::TotalBytes() const {
  uint64_t t = 0;
  for (const EblockIndex& b : blocks_) t += b.aux_bytes + b.edge_bytes;
  return t;
}

uint64_t AdjacencyStore::TotalEdges() const {
  uint64_t t = 0;
  for (const EblockIndex& b : blocks_) t += b.num_edges;
  return t;
}

}  // namespace hybridgraph
