// The one in-memory form of a push message: fixed-size records
// `[fixed32 dst LE | payload]` back to back in one byte slab. The same bytes
// are the body of a push wire batch, of a spill run and of a checkpoint's
// inbox section, so moving records between those places is a memcpy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/buffer.h"
#include "util/codec.h"

namespace hybridgraph {

/// \brief Records of `4 + payload_size` bytes, payload size fixed at
/// construction. Clear keeps capacity.
class RecordSlab {
 public:
  RecordSlab() = default;
  explicit RecordSlab(size_t payload_size) : payload_size_(payload_size) {}

  size_t payload_size() const { return payload_size_; }
  size_t record_size() const { return 4 + payload_size_; }
  size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  uint32_t dst(size_t i) const { return DecodeFixed<uint32_t>(record(i)); }
  const uint8_t* payload(size_t i) const { return record(i) + 4; }
  uint8_t* payload(size_t i) { return bytes_.data() + i * record_size() + 4; }
  const uint8_t* record(size_t i) const {
    return bytes_.data() + i * record_size();
  }

  /// Appends a record for `dst` and returns its payload slot for the caller
  /// to fill (valid until the next append).
  uint8_t* Append(uint32_t dst) {
    const size_t at = bytes_.size();
    bytes_.insert(bytes_.end(), record_size(), 0);
    ++count_;
    EncodeFixed<uint32_t>(bytes_.data() + at, dst);
    return bytes_.data() + at + 4;
  }
  void Append(uint32_t dst, const uint8_t* payload) {
    std::memcpy(Append(dst), payload, payload_size_);
  }
  /// Appends `n` records already in record layout.
  void AppendRecords(const uint8_t* records, size_t n) {
    bytes_.insert(bytes_.end(), records, records + n * record_size());
    count_ += n;
  }

  /// The records as one contiguous byte range.
  Slice bytes() const { return Slice(bytes_.data(), bytes_.size()); }

  void Clear() {
    bytes_.clear();
    count_ = 0;
  }

 private:
  size_t payload_size_ = 0;
  size_t count_ = 0;
  std::vector<uint8_t> bytes_;
};

}  // namespace hybridgraph
