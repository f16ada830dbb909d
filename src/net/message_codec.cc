#include "net/message_codec.h"

#include <cstring>

#include "util/logging.h"

namespace hybridgraph {

void FlatBatchCodec::Encode(const RecordSlab& head, Buffer* out,
                            const RecordSlab& tail) {
  Encoder enc(out);
  enc.PutVarint64(head.count() + tail.count());
  out->Append(head.bytes());
  out->Append(tail.bytes());
}

Status FlatBatchCodec::Read(Decoder* dec, size_t payload_size,
                            Slice* records) {
  uint64_t count = 0;
  HG_RETURN_IF_ERROR(dec->GetVarint64(&count));
  // Divide first: an attacker-controlled count must not overflow the product.
  const size_t record_size = 4 + payload_size;
  if (count > dec->remaining() / record_size) {
    return Status::Corruption("push batch count exceeds input size");
  }
  return dec->GetRaw(count * record_size, records);
}

Status FlatBatchCodec::Records(Slice data, size_t payload_size,
                               Slice* records) {
  Decoder dec(data);
  HG_RETURN_IF_ERROR(Read(&dec, payload_size, records));
  return dec.AtEnd() ? Status::OK()
                     : Status::Corruption(
                           "push batch body is not count whole records");
}

void GroupedBatchWriter::Reset(size_t payload_size) {
  payload_size_ = payload_size;
  dsts_.clear();
  counts_.clear();
  group_of_.clear();
  slab_.clear();
}

uint32_t GroupedBatchWriter::AddGroup(uint32_t dst) {
  dsts_.push_back(dst);
  counts_.push_back(0);
  return static_cast<uint32_t>(dsts_.size() - 1);
}

uint8_t* GroupedBatchWriter::Append(uint32_t g) {
  ++counts_[g];
  group_of_.push_back(g);
  slab_.resize(slab_.size() + payload_size_);
  return slab_.data() + slab_.size() - payload_size_;
}

void GroupedBatchWriter::EncodeTo(Buffer* out) {
  Encoder enc(out);
  enc.PutVarint64(dsts_.size());
  // Headers first, each followed by a hole its payloads fill below.
  std::vector<uint8_t>& bytes = out->bytes();
  cursor_.resize(dsts_.size());
  for (size_t g = 0; g < dsts_.size(); ++g) {
    enc.PutFixed32(dsts_[g]);
    enc.PutVarint64(counts_[g]);
    cursor_[g] = bytes.size();
    bytes.resize(bytes.size() + counts_[g] * payload_size_);
  }
  for (size_t r = 0; r < group_of_.size(); ++r) {
    std::memcpy(bytes.data() + cursor_[group_of_[r]],
                slab_.data() + r * payload_size_, payload_size_);
    cursor_[group_of_[r]] += payload_size_;
  }
}

}  // namespace hybridgraph
