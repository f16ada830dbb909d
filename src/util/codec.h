// Binary serialization primitives: little-endian fixed ints, LEB128 varints,
// floats, strings. Every byte that crosses the simulated network or disk goes
// through these, so encoded sizes are the ground truth for the cost model.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "util/buffer.h"
#include "util/status.h"

namespace hybridgraph {

/// Little-endian fixed-width store and load at `p`, for callers that already
/// checked the bounds (record slabs, record-aligned run chunks).
template <typename T>
inline void EncodeFixed(uint8_t* p, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}
template <typename T>
inline T DecodeFixed(const uint8_t* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(p[i]) << (8 * i);
  return v;
}

/// \brief Appends primitive values to a Buffer in a portable binary format.
class Encoder {
 public:
  explicit Encoder(Buffer* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->PushBack(v); }

  void PutFixed16(uint16_t v) { PutLittleEndian(v); }
  void PutFixed32(uint32_t v) { PutLittleEndian(v); }
  void PutFixed64(uint64_t v) { PutLittleEndian(v); }

  /// LEB128 unsigned varint (1-10 bytes).
  void PutVarint32(uint32_t v) { PutVarint64(v); }
  void PutVarint64(uint64_t v) {
    while (v >= 0x80) {
      out_->PushBack(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_->PushBack(static_cast<uint8_t>(v));
  }

  /// Zig-zag signed varint.
  void PutSignedVarint64(int64_t v) {
    PutVarint64((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }

  void PutFloat(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutFixed32(bits);
  }
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutFixed64(bits);
  }

  /// Length-prefixed (varint) byte string.
  void PutLengthPrefixed(Slice s) {
    PutVarint64(s.size());
    out_->Append(s);
  }
  void PutLengthPrefixed(const std::string& s) { PutLengthPrefixed(Slice(s)); }

  /// Raw bytes with no prefix (caller knows the length).
  void PutRaw(const void* data, size_t size) { out_->Append(data, size); }

  Buffer* buffer() { return out_; }

 private:
  template <typename T>
  void PutLittleEndian(T v) {
    uint8_t tmp[sizeof(T)];
    EncodeFixed(tmp, v);
    out_->Append(tmp, sizeof(T));
  }

  Buffer* out_;
};

/// \brief Reads primitives back out of a Slice, tracking a cursor.
///
/// All getters return Status so truncated/corrupt inputs surface as
/// StatusCode::kOutOfRange instead of UB.
class Decoder {
 public:
  explicit Decoder(Slice input) : input_(input), pos_(0) {}

  size_t remaining() const { return input_.size() - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == input_.size(); }

  Status GetU8(uint8_t* v) {
    if (remaining() < 1) return Truncated("u8");
    *v = input_[pos_++];
    return Status::OK();
  }

  Status GetFixed16(uint16_t* v) { return GetLittleEndian(v); }
  Status GetFixed32(uint32_t* v) { return GetLittleEndian(v); }
  Status GetFixed64(uint64_t* v) { return GetLittleEndian(v); }

  Status GetVarint64(uint64_t* v) {
    uint64_t result = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= input_.size()) return Truncated("varint");
      if (shift >= 64) return Status::Corruption("varint too long");
      uint8_t byte = input_[pos_++];
      result |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if (!(byte & 0x80)) break;
      shift += 7;
    }
    *v = result;
    return Status::OK();
  }

  Status GetVarint32(uint32_t* v) {
    uint64_t tmp = 0;
    HG_RETURN_IF_ERROR(GetVarint64(&tmp));
    if (tmp > UINT32_MAX) return Status::Corruption("varint32 overflow");
    *v = static_cast<uint32_t>(tmp);
    return Status::OK();
  }

  Status GetSignedVarint64(int64_t* v) {
    uint64_t enc = 0;
    HG_RETURN_IF_ERROR(GetVarint64(&enc));
    *v = static_cast<int64_t>((enc >> 1) ^ (~(enc & 1) + 1));
    return Status::OK();
  }

  Status GetFloat(float* v) {
    uint32_t bits = 0;
    HG_RETURN_IF_ERROR(GetFixed32(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }
  Status GetDouble(double* v) {
    uint64_t bits = 0;
    HG_RETURN_IF_ERROR(GetFixed64(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }

  Status GetLengthPrefixed(Slice* out) {
    uint64_t len = 0;
    HG_RETURN_IF_ERROR(GetVarint64(&len));
    if (remaining() < len) return Truncated("length-prefixed bytes");
    *out = input_.SubSlice(pos_, len);
    pos_ += len;
    return Status::OK();
  }

  Status GetRaw(size_t n, Slice* out) {
    if (remaining() < n) return Truncated("raw bytes");
    *out = input_.SubSlice(pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status Skip(size_t n) {
    if (remaining() < n) return Truncated("skip");
    pos_ += n;
    return Status::OK();
  }

 private:
  template <typename T>
  Status GetLittleEndian(T* v) {
    if (remaining() < sizeof(T)) return Truncated("fixed int");
    *v = DecodeFixed<T>(input_.data() + pos_);
    pos_ += sizeof(T);
    return Status::OK();
  }

  Status Truncated(const char* what) {
    return Status::OutOfRange(std::string("decode past end of input: ") + what);
  }

  Slice input_;
  size_t pos_;
};

/// Bytes a varint encoding of `v` occupies.
inline size_t VarintLength(uint64_t v) {
  size_t len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

/// FNV-1a 64-bit hash: the integrity checksum for checkpoint images (torn or
/// bit-flipped images must fail restore, not decode garbage). Not
/// cryptographic — it guards against partial writes and corruption, not
/// adversaries.
inline uint64_t Fnv1a64(const void* data, size_t size,
                        uint64_t seed = 0xcbf29ce484222325ULL) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace hybridgraph
