// Wire encoding of message batches.
//
// push batch:       [count][ (dst_vertex fixed32, payload raw) x count ]
// concatenated:     [groups][ (dst_vertex fixed32, n varint, payload x n) ... ]
//
// Concatenation is the paper's first communication optimization for
// pull-based transfers: message values destined for the same vertex share a
// single destination id on the wire. Combined batches degenerate to
// concatenated groups of size 1 (after the combiner collapsed the values).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/buffer.h"
#include "util/codec.h"
#include "util/logging.h"
#include "util/record_slab.h"
#include "util/status.h"

namespace hybridgraph {

/// \brief A flat batch (push wire format): a varint count, then the records
/// of a RecordSlab verbatim.
struct FlatBatchCodec {
  /// Appends one batch holding the records of `head`, then those of `tail`.
  static void Encode(const RecordSlab& head, Buffer* out,
                     const RecordSlab& tail = RecordSlab());

  /// Reads the batch at `dec` (which may hold more after it) and points
  /// *records at its record bytes (no copy). An oversized count is Corruption.
  static Status Read(Decoder* dec, size_t payload_size, Slice* records);

  /// Read over all of `data`: a body that is not exactly
  /// count × (4 + payload_size) bytes is Corruption.
  static Status Records(Slice data, size_t payload_size, Slice* records);

  /// Calls fn(dst, payload) -> Status per record in wire order, with the
  /// payload pointing into `data` (no copy); the first non-OK status stops
  /// the walk.
  template <typename Fn>
  static Status ForEach(Slice data, size_t payload_size, Fn&& fn) {
    Slice records;
    HG_RETURN_IF_ERROR(Records(data, payload_size, &records));
    for (size_t at = 0; at < records.size(); at += 4 + payload_size) {
      const uint8_t* r = records.data() + at;
      HG_RETURN_IF_ERROR(fn(DecodeFixed<uint32_t>(r), r + 4));
    }
    return Status::OK();
  }
};

/// \brief A grouped batch: per destination vertex, several payloads share one
/// id (pull/b-pull wire format after concatenation or combining).
struct GroupedBatchCodec {
  /// Calls fn(dst, payloads, n) -> Status per group in wire order, with the
  /// n payloads contiguous inside `data` (no copy). Counts the input cannot
  /// hold are Corruption; the first non-OK status stops the walk.
  template <typename Fn>
  static Status ForEach(Slice data, size_t payload_size, Fn&& fn) {
    Decoder dec(data);
    uint64_t num_groups = 0;
    HG_RETURN_IF_ERROR(dec.GetVarint64(&num_groups));
    // A group is at least 5 bytes (dst + count varint).
    if (num_groups > dec.remaining() / 5) {
      return Status::Corruption("group count exceeds input size");
    }
    for (uint64_t i = 0; i < num_groups; ++i) {
      uint32_t dst = 0;
      uint64_t n = 0;
      Slice payloads;
      HG_RETURN_IF_ERROR(dec.GetFixed32(&dst));
      HG_RETURN_IF_ERROR(dec.GetVarint64(&n));
      if (payload_size > 0 && n > dec.remaining() / payload_size) {
        return Status::Corruption("group payload count exceeds input size");
      }
      HG_RETURN_IF_ERROR(dec.GetRaw(n * payload_size, &payloads));
      HG_RETURN_IF_ERROR(fn(dst, payloads.data(), n));
    }
    return Status::OK();
  }
};

/// \brief Builds a grouped batch in one flat slab from payloads arriving in
/// any group order: groups encode in creation order, payloads in append
/// order (a stable counting sort into the output). Reset keeps capacity.
class GroupedBatchWriter {
 public:
  void Reset(size_t payload_size);

  /// Opens a group for `dst` and returns its index.
  uint32_t AddGroup(uint32_t dst);
  /// Appends one payload slot to group `g`; returns it for the caller to
  /// fill (valid until the next Append).
  uint8_t* Append(uint32_t g);
  /// The one payload slot of group `g`, for a combiner to fold into. Valid
  /// only while every group holds exactly one payload, so that append order
  /// is group order.
  uint8_t* slot_of(uint32_t g) {
    HG_DCHECK(counts_[g] == 1 && g < group_of_.size() && group_of_[g] == g);
    return slab_.data() + size_t{g} * payload_size_;
  }

  /// Appends the encoded batch to `out`.
  void EncodeTo(Buffer* out);

 private:
  size_t payload_size_ = 0;
  std::vector<uint32_t> dsts_;
  std::vector<uint64_t> counts_;
  std::vector<uint32_t> group_of_;  ///< per appended payload
  std::vector<uint8_t> slab_;       ///< payloads in append order
  std::vector<size_t> cursor_;      ///< EncodeTo scratch
};

}  // namespace hybridgraph
