// Receiver-side message containers shared by every push-family MessagePath:
// the double-buffered inbox (memory portion B_i + sorted disk spill) and the
// per-vertex pending set Phase A collects into. Both store raw encoded
// message payloads so the containers compile once (no Program template) —
// PodCodec encode/decode is a memcpy round trip, so raw storage is
// bit-identical to typed message vectors.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/types.h"
#include "io/message_spill.h"
#include "util/record_slab.h"

namespace hybridgraph {

/// One direction of the double-buffered inbox: the in-memory records plus
/// the spill the overflow goes to. Capacity policy (B_i, pushM online
/// computing) lives in AdmitPushRecords; this is storage plus counters only.
struct MessageInbox {
  /// The memory portion (at most B_i records).
  RecordSlab mem;
  /// Where the overflow goes; null only in unit tests.
  std::unique_ptr<MessageSpill> spill;
  /// Messages received into this inbox (memory + spilled).
  uint64_t total = 0;
  /// Messages that overflowed B_i and went to the spill.
  uint64_t spilled = 0;

  /// Clears the memory portion and the counters (not the spill).
  void ClearMem() {
    mem.Clear();
    total = 0;
    spilled = 0;
  }
};

/// The per-local-vertex message groups Phase A (load()) assembles for Phase
/// B's update(). Combinable programs fold every arrival into one slot via the
/// raw combine shim; others append. Slot storage is recycled across
/// supersteps exactly like the old per-vertex vectors.
class PendingSet {
 public:
  using CombineRawFn = void (*)(uint8_t* acc, const uint8_t* other);

  /// `combiner` null means append (non-combinable program).
  void Init(uint32_t num_vertices, size_t msg_size, CombineRawFn combiner);

  void Add(uint32_t local_idx, const uint8_t* payload);
  bool Has(uint32_t local_idx) const { return has_[local_idx] != 0; }
  size_t CountAt(uint32_t local_idx) const {
    return slots_[local_idx].size() / msg_size_;
  }
  const uint8_t* DataAt(uint32_t local_idx) const {
    return slots_[local_idx].data();
  }
  size_t msg_size() const { return msg_size_; }

  /// Marks the slot consumed (keeps its capacity, like vector::clear()).
  void ConsumeAt(uint32_t local_idx);

  /// Messages added since the last ResetCount (the engine's pending_count).
  uint64_t added() const { return added_; }
  void ResetCount() { added_ = 0; }

 private:
  size_t msg_size_ = 0;
  CombineRawFn combiner_ = nullptr;
  std::vector<std::vector<uint8_t>> slots_;
  std::vector<uint8_t> has_;
  uint64_t added_ = 0;
};

}  // namespace hybridgraph
