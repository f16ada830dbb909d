#include "core/inbox.h"

#include <cstring>
#include <utility>

namespace hybridgraph {

void PendingSet::Init(uint32_t num_vertices, size_t msg_size,
                      CombineRawFn combiner) {
  msg_size_ = msg_size;
  combiner_ = combiner;
  slots_.assign(num_vertices, {});
  has_.assign(num_vertices, 0);
  added_ = 0;
}

void PendingSet::Add(uint32_t local_idx, const uint8_t* payload) {
  auto& slot = slots_[local_idx];
  if (combiner_ != nullptr) {
    if (has_[local_idx]) {
      combiner_(slot.data(), payload);
    } else {
      slot.assign(payload, payload + msg_size_);
      has_[local_idx] = 1;
    }
  } else {
    slot.insert(slot.end(), payload, payload + msg_size_);
    has_[local_idx] = 1;
  }
  ++added_;
}

void PendingSet::ConsumeAt(uint32_t local_idx) {
  slots_[local_idx].clear();
  has_[local_idx] = 0;
}

}  // namespace hybridgraph
