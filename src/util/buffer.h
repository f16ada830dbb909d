// Byte containers: Slice (non-owning view) and Buffer (growable owner).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace hybridgraph {

/// \brief Non-owning view over a contiguous byte range.
///
/// The viewed memory must outlive the Slice. Used for zero-copy decode paths.
class Slice {
 public:
  Slice() : data_(nullptr), size_(0) {}
  Slice(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  Slice(const char* data, size_t size)
      : data_(reinterpret_cast<const uint8_t*>(data)), size_(size) {}
  explicit Slice(const std::string& s)
      : data_(reinterpret_cast<const uint8_t*>(s.data())), size_(s.size()) {}
  explicit Slice(const std::vector<uint8_t>& v) : data_(v.data()), size_(v.size()) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  uint8_t operator[](size_t i) const { return data_[i]; }

  /// Returns the sub-view [offset, offset+len); caller guarantees bounds.
  Slice SubSlice(size_t offset, size_t len) const {
    return Slice(data_ + offset, len);
  }

  std::string ToString() const {
    return std::string(reinterpret_cast<const char*>(data_), size_);
  }

  bool operator==(const Slice& other) const {
    return size_ == other.size_ &&
           (size_ == 0 || std::memcmp(data_, other.data_, size_) == 0);
  }

 private:
  const uint8_t* data_;
  size_t size_;
};

/// \brief Growable owned byte buffer used as the serialization target.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {}

  void Append(const void* data, size_t size) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }
  void Append(Slice s) { Append(s.data(), s.size()); }
  void PushBack(uint8_t b) { bytes_.push_back(b); }

  void Clear() { bytes_.clear(); }

  const uint8_t* data() const { return bytes_.data(); }
  uint8_t* data() { return bytes_.data(); }
  size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }

  Slice AsSlice() const { return Slice(bytes_.data(), bytes_.size()); }
  std::vector<uint8_t>& bytes() { return bytes_; }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

}  // namespace hybridgraph
