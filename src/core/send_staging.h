// Sender-side staging for push production: per destination node, the
// unflushed (destination vertex, raw message payload) record slab plus the
// sender combining index (pushM+com, Appendix E). Only messages that are
// still in the unflushed buffer can combine — flushing clears the index,
// which is exactly why small sending thresholds limit the gain.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/types.h"
#include "util/record_slab.h"

namespace hybridgraph {

class SendStaging {
 public:
  using CombineRawFn = void (*)(uint8_t* acc, const uint8_t* other);

  /// `combiner` may be null when the program is not combinable (TryCombine
  /// is never called in that case).
  void Init(uint32_t num_dst_nodes, size_t msg_size, CombineRawFn combiner) {
    combiner_ = combiner;
    records_.assign(num_dst_nodes, RecordSlab(msg_size));
    index_.resize(num_dst_nodes);
  }

  /// Unflushed records staged for `dst`, in staging order.
  const RecordSlab& records(uint32_t dst) const { return records_[dst]; }

  void Append(uint32_t dst, VertexId dst_vertex, const uint8_t* payload) {
    records_[dst].Append(dst_vertex, payload);
  }

  /// Sender combining: if an unflushed message for `dst_vertex` exists,
  /// combines `payload` into it and returns true. Otherwise registers the
  /// slot the next Append will occupy and returns false — callers must
  /// Append on a false return (mirroring the engine's try_emplace-then-
  /// emplace_back sequence exactly).
  bool TryCombine(uint32_t dst, VertexId dst_vertex, const uint8_t* payload) {
    auto [it, inserted] =
        index_[dst].try_emplace(dst_vertex, records_[dst].count());
    if (inserted) return false;
    combiner_(records_[dst].payload(it->second), payload);
    return true;
  }

  /// Drops the staged records and the combining index for `dst`.
  void Clear(uint32_t dst) {
    records_[dst].Clear();
    index_[dst].clear();
  }

 private:
  CombineRawFn combiner_ = nullptr;
  /// Per destination node: the records in staging order.
  std::vector<RecordSlab> records_;
  /// Per destination node: dst vertex -> record slot in `records_`.
  std::vector<std::unordered_map<VertexId, size_t>> index_;
};

}  // namespace hybridgraph
