// Disk-resident vertex value store (the Vblocks of VE-BLOCK).
//
// One blob per Vblock holding the paper's triples (id, val, |Vo|). Both push
// and b-pull share this store (Sec 5.2: "the shared update() makes push and
// b-pull share vertex values, i.e., Vblocks in VE-BLOCK"). Sequential block
// scans serve update(); random per-record reads serve Pull-Respond's source
// vertex lookups (the IO(V_rr) term).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "graph/partition.h"
#include "graph/types.h"
#include "io/prefetch.h"
#include "io/storage.h"

namespace hybridgraph {

class VertexValueStore {
 public:
  /// Builds the store for `node`'s vertex range.
  ///
  /// \param value_size fixed serialized size of one vertex value.
  /// \param out_degrees out-degree per *global* vertex id (only this node's
  ///        range is consulted).
  /// \param init writes the initial serialized value for a vertex into the
  ///        provided buffer of `value_size` bytes.
  static Result<std::unique_ptr<VertexValueStore>> Build(
      StorageService* storage, const RangePartition& partition, NodeId node,
      size_t value_size, const std::vector<uint32_t>& out_degrees,
      const std::function<void(VertexId, uint8_t*)>& init);

  /// Rewrites every Vblock of this node with init(v) values and the current
  /// out-degrees — the load-time layout, and a cold epoch restart's.
  Status WriteInitValues(const std::function<void(VertexId, uint8_t*)>& init);

  size_t value_size() const { return value_size_; }
  /// On-disk record: id (4) + out-degree (4) + value payload.
  size_t record_size() const { return 8 + value_size_; }

  /// Reads all value payloads of a Vblock into `*values`, concatenated in
  /// vertex order (size = count * value_size). Metered with `cls`. A non-null
  /// `pipeline` serves the read through the prefetcher (staged bytes if
  /// PrefetchBlock ran, sync read otherwise — metering is identical).
  Status ReadBlock(uint32_t global_vb, std::vector<uint8_t>* values, IoClass cls,
                   ReadPipeline* pipeline = nullptr);

  /// Stages a background read of a Vblock for a later ReadBlock. No-op on a
  /// null/disabled pipeline.
  void PrefetchBlock(uint32_t global_vb, ReadPipeline* pipeline, IoClass cls);

  /// Writes back all value payloads of a Vblock. Metered with `cls`.
  Status WriteBlock(uint32_t global_vb, const std::vector<uint8_t>& values,
                    IoClass cls);

  /// Random read of one vertex's record (the b-pull IO(V_rr) access).
  Status ReadValueRandom(VertexId v, std::vector<uint8_t>* value);

  /// Out-degree lookup (kept in memory; streaming batches adjust it).
  uint32_t OutDegree(VertexId v) const {
    return out_degrees_[v - node_range_.begin];
  }

  /// Adjusts the in-memory out-degree after a streaming edge batch. The
  /// caller must rewrite the affected Vblock (ReadBlock + WriteBlock) so the
  /// on-disk record's degree field is refreshed from this memory copy.
  void AdjustOutDegree(VertexId v, int64_t delta) {
    uint32_t& d = out_degrees_[v - node_range_.begin];
    d = static_cast<uint32_t>(static_cast<int64_t>(d) + delta);
  }

  uint64_t BlockBytes(uint32_t global_vb) const;
  uint64_t TotalBytes() const;
  const VertexRange& node_range() const { return node_range_; }

 private:
  VertexValueStore(StorageService* storage, const RangePartition& partition,
                   NodeId node, size_t value_size);

  std::string BlockKey(uint32_t global_vb) const;
  uint32_t LocalVb(uint32_t global_vb) const;

  StorageService* storage_;
  const RangePartition* partition_;
  NodeId node_;
  size_t value_size_;
  VertexRange node_range_;
  std::vector<uint32_t> out_degrees_;  // indexed by v - node_range_.begin
};

}  // namespace hybridgraph
