#include "net/message_codec.h"

#include <cstring>

#include "util/logging.h"

namespace hybridgraph {

void FlatBatchCodec::Encode(
    const std::vector<std::pair<uint32_t, std::vector<uint8_t>>>& msgs,
    size_t payload_size, Buffer* out) {
  Encoder enc(out);
  enc.PutVarint64(msgs.size());
  for (const auto& [dst, payload] : msgs) {
    HG_DCHECK(payload.size() == payload_size);
    enc.PutFixed32(dst);
    enc.PutRaw(payload.data(), payload.size());
  }
}

Status FlatBatchCodec::Decode(
    Slice data, size_t payload_size,
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>>* out) {
  Decoder dec(data);
  uint64_t count;
  HG_RETURN_IF_ERROR(dec.GetVarint64(&count));
  // A record is at least 4 bytes (dst) + payload; a count that cannot fit in
  // the remaining input is corrupt — reject it up front rather than letting
  // an attacker-controlled varint drive a giant reserve().
  if (count > dec.remaining() / (4 + payload_size)) {
    return Status::Corruption("batch count exceeds input size");
  }
  out->reserve(out->size() + count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t dst;
    Slice payload;
    HG_RETURN_IF_ERROR(dec.GetFixed32(&dst));
    HG_RETURN_IF_ERROR(dec.GetRaw(payload_size, &payload));
    out->emplace_back(dst, std::vector<uint8_t>(payload.data(),
                                                payload.data() + payload.size()));
  }
  return Status::OK();
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
