// Disk cost model. Every byte moved to/from the simulated disk is metered by
// access class; modeled time = bytes / throughput (+ a fixed per-random-op
// software/seek overhead). A whole-blob page cache models the OS cache the
// paper's cluster machines have: graph structures that are re-read every
// superstep (Vblocks, Eblocks, adjacency blocks) become RAM-speed after the
// first touch, while spill/dirty writes always pay device cost — exactly the
// asymmetry that makes push's receiver-side message spilling so much more
// expensive than b-pull's sender-side graph re-reads.
//
// Each profile carries two sets of numbers:
//  * runtime-model throughputs (realistic device + RAM speeds) used to turn
//    metered bytes into modeled seconds, and
//  * the paper's Table-3 fio calibration numbers (mixed random/sequential
//    pattern) used verbatim in the Q_t switching metric (Eq. 11), as the
//    paper does.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace hybridgraph {

/// Access class of a disk operation. The paper's cost formulas distinguish
/// sequential reads (s_sr), random reads (s_rr) and random writes (s_rw).
enum class IoClass : int {
  kSeqRead = 0,
  kSeqWrite = 1,
  kRandRead = 2,
  kRandWrite = 3,
};

constexpr int kNumIoClasses = 4;

const char* IoClassName(IoClass c);

/// Page-cache (RAM) read throughput.
constexpr double kRamMbps = 3000.0;

/// \brief Device profile: runtime-model throughputs plus Table-3 calibration.
struct DiskProfile {
  std::string name;
  // Runtime model (MB/s).
  double seq_read_mbps;
  double seq_write_mbps;
  double rand_read_mbps;
  double rand_write_mbps;
  /// Fixed software + positioning overhead per random operation (seconds);
  /// charged whether or not the page cache absorbs the bytes.
  double per_random_op_s;

  // Table 3 numbers (fio, mixed pattern) for the Q_t metric.
  double qt_rand_read_mbps;
  double qt_rand_write_mbps;
  double qt_seq_read_mbps;

  double MbpsFor(IoClass c) const {
    switch (c) {
      case IoClass::kSeqRead:
        return seq_read_mbps;
      case IoClass::kSeqWrite:
        return seq_write_mbps;
      case IoClass::kRandRead:
        return rand_read_mbps;
      case IoClass::kRandWrite:
        return rand_write_mbps;
    }
    return 1.0;
  }

  /// Local cluster, 7200RPM HDD. Table 3: s_rr/s_rw/s_sr =
  /// 1.177/1.182/2.358 MB/s.
  static DiskProfile Hdd();
  /// Amazon cluster, SSD. Table 3: 18.177/18.194/18.270 MB/s.
  static DiskProfile Ssd();
};

/// \brief Per-node byte meter keyed by IoClass; converts to modeled seconds.
///
/// Bytes served from the page cache are tracked separately (`cached`) and
/// charged at RAM speed; random operations additionally pay the per-op
/// overhead regardless of cache residency.
class DiskMeter {
 public:
  void Record(IoClass c, uint64_t bytes, uint64_t ops = 1) {
    bytes_[static_cast<int>(c)] += bytes;
    ops_[static_cast<int>(c)] += ops;
  }
  void RecordCached(IoClass c, uint64_t bytes, uint64_t ops = 1) {
    cached_bytes_[static_cast<int>(c)] += bytes;
    ops_[static_cast<int>(c)] += ops;
  }

  /// Device bytes (cache misses + all writes).
  uint64_t bytes(IoClass c) const { return bytes_[static_cast<int>(c)]; }
  /// Bytes served from the page cache.
  uint64_t cached_bytes(IoClass c) const {
    return cached_bytes_[static_cast<int>(c)];
  }
  uint64_t ops(IoClass c) const { return ops_[static_cast<int>(c)]; }

  /// All bytes that crossed the storage interface (device + cached).
  uint64_t TotalBytes() const {
    uint64_t t = 0;
    for (auto b : bytes_) t += b;
    for (auto b : cached_bytes_) t += b;
    return t;
  }
  uint64_t ReadBytes() const {
    return bytes(IoClass::kSeqRead) + bytes(IoClass::kRandRead) +
           cached_bytes(IoClass::kSeqRead) + cached_bytes(IoClass::kRandRead);
  }
  uint64_t WriteBytes() const {
    return bytes(IoClass::kSeqWrite) + bytes(IoClass::kRandWrite) +
           cached_bytes(IoClass::kSeqWrite) + cached_bytes(IoClass::kRandWrite);
  }

  /// Modeled wall time this meter's traffic would take on `profile`.
  double ModeledSeconds(const DiskProfile& profile) const {
    double t = 0.0;
    uint64_t rand_ops = 0;
    for (int c = 0; c < kNumIoClasses; ++c) {
      t += static_cast<double>(bytes_[c]) /
           (profile.MbpsFor(static_cast<IoClass>(c)) * 1024.0 * 1024.0);
      t += static_cast<double>(cached_bytes_[c]) / (kRamMbps * 1024.0 * 1024.0);
    }
    rand_ops = ops_[static_cast<int>(IoClass::kRandRead)] +
               ops_[static_cast<int>(IoClass::kRandWrite)];
    t += static_cast<double>(rand_ops) * profile.per_random_op_s;
    return t;
  }

  void Reset() {
    bytes_.fill(0);
    cached_bytes_.fill(0);
    ops_.fill(0);
  }

  /// Byte-wise difference (this - earlier); used for per-superstep deltas.
  DiskMeter DeltaSince(const DiskMeter& earlier) const {
    DiskMeter d;
    for (int c = 0; c < kNumIoClasses; ++c) {
      d.bytes_[c] = bytes_[c] - earlier.bytes_[c];
      d.cached_bytes_[c] = cached_bytes_[c] - earlier.cached_bytes_[c];
      d.ops_[c] = ops_[c] - earlier.ops_[c];
    }
    return d;
  }

 private:
  std::array<uint64_t, kNumIoClasses> bytes_{};
  std::array<uint64_t, kNumIoClasses> cached_bytes_{};
  std::array<uint64_t, kNumIoClasses> ops_{};
};

}  // namespace hybridgraph
