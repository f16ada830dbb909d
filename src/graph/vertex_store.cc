#include "graph/vertex_store.h"

#include "util/codec.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hybridgraph {

VertexValueStore::VertexValueStore(StorageService* storage,
                                   const RangePartition& partition, NodeId node,
                                   size_t value_size)
    : storage_(storage),
      partition_(&partition),
      node_(node),
      value_size_(value_size),
      node_range_(partition.NodeRange(node)) {}

std::string VertexValueStore::BlockKey(uint32_t global_vb) const {
  return StringFormat("node%u/vblock/%06u", node_, global_vb);
}

uint32_t VertexValueStore::LocalVb(uint32_t global_vb) const {
  return global_vb - partition_->FirstVblockOf(node_);
}

Result<std::unique_ptr<VertexValueStore>> VertexValueStore::Build(
    StorageService* storage, const RangePartition& partition, NodeId node,
    size_t value_size, const std::vector<uint32_t>& out_degrees,
    const std::function<void(VertexId, uint8_t*)>& init) {
  std::unique_ptr<VertexValueStore> store(
      new VertexValueStore(storage, partition, node, value_size));
  const VertexRange range = partition.NodeRange(node);
  store->out_degrees_.resize(range.size());
  for (VertexId v = range.begin; v < range.end; ++v) {
    store->out_degrees_[v - range.begin] = out_degrees[v];
  }

  HG_RETURN_IF_ERROR(store->WriteInitValues(init));
  return store;
}

Status VertexValueStore::WriteInitValues(
    const std::function<void(VertexId, uint8_t*)>& init) {
  std::vector<uint8_t> values;
  for (uint32_t vb = partition_->FirstVblockOf(node_);
       vb < partition_->LastVblockOf(node_); ++vb) {
    const VertexRange r = partition_->VblockRange(vb);
    values.resize(static_cast<size_t>(r.size()) * value_size_);
    for (VertexId v = r.begin; v < r.end; ++v) {
      init(v, values.data() + static_cast<size_t>(v - r.begin) * value_size_);
    }
    // A bulk sequential write of the whole block.
    HG_RETURN_IF_ERROR(WriteBlock(vb, values, IoClass::kSeqWrite));
  }
  return Status::OK();
}

Status VertexValueStore::ReadBlock(uint32_t global_vb,
                                   std::vector<uint8_t>* values, IoClass cls,
                                   ReadPipeline* pipeline) {
  const std::string key = BlockKey(global_vb);
  const ReadOptions opts{.io_class = cls};
  auto read = pipeline ? pipeline->Fetch(key, opts) : storage_->Read(key, opts);
  if (!read.ok()) return read.status();
  const std::vector<uint8_t>& raw = read->data;
  const VertexRange r = partition_->VblockRange(global_vb);
  const size_t rec = record_size();
  if (raw.size() != static_cast<size_t>(r.size()) * rec) {
    return Status::Corruption("vblock size mismatch");
  }
  values->resize(static_cast<size_t>(r.size()) * value_size_);
  for (uint32_t i = 0; i < r.size(); ++i) {
    std::copy(raw.begin() + static_cast<ptrdiff_t>(i * rec + 8),
              raw.begin() + static_cast<ptrdiff_t>(i * rec + 8 + value_size_),
              values->begin() + static_cast<ptrdiff_t>(i * value_size_));
  }
  return Status::OK();
}

Status VertexValueStore::WriteBlock(uint32_t global_vb,
                                    const std::vector<uint8_t>& values,
                                    IoClass cls) {
  const VertexRange r = partition_->VblockRange(global_vb);
  if (values.size() != static_cast<size_t>(r.size()) * value_size_) {
    return Status::InvalidArgument("value payload size mismatch on write");
  }
  Buffer buf;
  Encoder enc(&buf);
  for (uint32_t i = 0; i < r.size(); ++i) {
    const VertexId v = r.begin + i;
    enc.PutFixed32(v);
    enc.PutFixed32(out_degrees_[v - node_range_.begin]);
    enc.PutRaw(values.data() + static_cast<size_t>(i) * value_size_, value_size_);
  }
  return storage_->Write(BlockKey(global_vb), buf.AsSlice(), cls);
}

void VertexValueStore::PrefetchBlock(uint32_t global_vb, ReadPipeline* pipeline,
                                     IoClass cls) {
  if (pipeline == nullptr) return;
  pipeline->Schedule(BlockKey(global_vb), ReadOptions{.io_class = cls});
}

Status VertexValueStore::ReadRecordSpan(VertexId first, VertexId last,
                                        uint64_t charged_reads,
                                        std::vector<uint8_t>* records) {
  if (first > last || !node_range_.Contains(first) ||
      !node_range_.Contains(last) ||
      partition_->VblockOf(first) != partition_->VblockOf(last)) {
    return Status::InvalidArgument("record span not inside one local Vblock");
  }
  const uint32_t vb = partition_->VblockOf(first);
  const std::string key = BlockKey(vb);
  const uint64_t offset =
      static_cast<uint64_t>(first - partition_->VblockRange(vb).begin) *
      record_size();
  const uint64_t length = (uint64_t{last} - first + 1) * record_size();
  HG_ASSIGN_OR_RETURN(
      ReadResult span,
      storage_->Read(key, {.offset = offset, .length = length,
                           .metering = false}));
  storage_->ChargeReads(key, span.blob_size, record_size(), IoClass::kRandRead,
                        charged_reads);
  *records = std::move(span.data);
  return Status::OK();
}

uint64_t VertexValueStore::BlockBytes(uint32_t global_vb) const {
  return static_cast<uint64_t>(partition_->VblockRange(global_vb).size()) *
         record_size();
}

uint64_t VertexValueStore::TotalBytes() const {
  return static_cast<uint64_t>(node_range_.size()) * record_size();
}

}  // namespace hybridgraph
