// Per-node storage service: a keyed blob store through which all
// "disk-resident" data (adjacency blocks, Vblocks, Eblocks, message spills)
// is written and read. Every access declares its IoClass and is metered.
//
// Two backends share the interface: MemStorage keeps blobs in memory (fast,
// used by benches — modeled time comes from the meter, not from real device
// speed) and FileStorage writes real files under a directory (used by tests
// to validate that the layered formats round-trip through a real filesystem).
//
// Read surface: one entry point, Read(key, ReadOptions) -> Result<ReadResult>.
// ReadOptions selects whole-blob vs ranged vs clamped-streaming reads and
// whether the read is metered; ReadResult carries the bytes plus the blob
// size and cache-hit flag the caller would otherwise re-derive. ReadAsync
// runs the same resolve+raw-read on a ThreadPool and hands back an
// AsyncReadHandle (Poll/Take/Cancel) — always unmetered and page-cache
// neutral, so a prefetcher can stage bytes early and charge the model at the
// original consumption point via FinishStagedRead (keeping modeled I/O
// bit-identical whether or not prefetch is enabled).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/disk_model.h"
#include "util/buffer.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace hybridgraph {

class ThreadPool;

/// Sentinel for ReadOptions::length: read from `offset` to the blob end.
inline constexpr uint64_t kReadAll = UINT64_MAX;

/// \brief Parameters of one read. Aggregate — call sites use designated
/// initializers, e.g. `storage->Read(key, {.io_class = IoClass::kSeqRead})`.
struct ReadOptions {
  /// First byte to read.
  uint64_t offset = 0;
  /// Bytes to read; kReadAll = to the end of the blob.
  uint64_t length = kReadAll;
  /// With an explicit `length`, a read past the blob end is clamped instead
  /// of failing OutOfRange (reading at/past the end yields empty data). This
  /// is the streaming-scan mode used by chunk-at-a-time consumers.
  bool allow_short = false;
  /// Advisory: bytes the caller expects to read next (prefetch sizing hint).
  /// Never changes what this read returns or meters.
  uint64_t readahead_hint = 0;
  /// Modeled device class charged for the read.
  IoClass io_class = IoClass::kSeqRead;
  /// When false, the read moves bytes but records nothing in the meter and
  /// leaves the page cache untouched (used by the async prefetch stage;
  /// the model is charged later via FinishStagedRead).
  bool metering = true;
};

/// \brief Outcome of one read.
struct ReadResult {
  std::vector<uint8_t> data;
  /// Total size of the blob at read time (callers use it to detect EOF in
  /// clamped scans without a separate SizeOf round-trip).
  uint64_t blob_size = 0;
  /// True when the metered read was served from the page cache (always false
  /// for unmetered reads).
  bool cache_hit = false;
};

/// \brief Completion handle for ReadAsync. Thread-safe; shared between the
/// submitting thread and the pool worker.
class AsyncReadHandle {
 public:
  /// True once the background read has finished (successfully or not).
  bool Poll() const;
  /// Blocks until completion, then moves the result out. Call at most once.
  Result<ReadResult> Take();
  /// Requests cancellation: a task that has not started yet completes with
  /// FailedPrecondition instead of touching storage. A task already reading
  /// runs to completion (the result is simply discarded by the caller).
  void Cancel();
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  /// Wall-clock span of the background read (steady-clock microseconds;
  /// measured, not modeled). Valid once Poll() is true.
  uint64_t start_us() const { return start_us_; }
  uint64_t end_us() const { return end_us_; }

 private:
  friend class StorageService;
  void Complete(Result<ReadResult> r, uint64_t start_us, uint64_t end_us);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::atomic<bool> cancelled_{false};
  Result<ReadResult> result_{Status::FailedPrecondition("async read pending")};
  uint64_t start_us_ = 0;
  uint64_t end_us_ = 0;
};

/// \brief Abstract keyed blob store with metered access and an optional
/// whole-blob LRU page cache (reads of cached blobs are metered at RAM cost;
/// writes always pay device cost and refresh the cache).
///
/// Thread safety: all blob operations, the meter, and the page cache are
/// guarded by one internal lock, so a storage instance may be accessed from
/// concurrent superstep phases (e.g. pull handlers served for several
/// requesters). Note that meter snapshots are only meaningful when taken
/// while no operations are in flight (the engines snapshot between phases).
class StorageService {
 public:
  virtual ~StorageService() = default;

  /// Turns on the page-cache model with the given capacity (0 disables).
  void EnablePageCache(uint64_t capacity_bytes) {
    page_cache_capacity_ = capacity_bytes;
  }

  /// Replaces the blob at `key` with `data`.
  virtual Status Write(const std::string& key, Slice data, IoClass cls) = 0;

  /// Appends `data` to the blob at `key`, creating it if absent.
  virtual Status Append(const std::string& key, Slice data, IoClass cls) = 0;

  /// The one read entry point: resolves the requested range against the blob
  /// (missing key -> NotFound; explicit length past the end -> OutOfRange, or
  /// clamped when opts.allow_short), reads it, and meters it unless
  /// opts.metering is false. Evaluates the "storage.read" fail-point before
  /// taking the storage lock, so an injected delay stalls only this reader.
  Result<ReadResult> Read(const std::string& key, const ReadOptions& opts = {});

  /// Starts the same resolve+read on `pool` and returns immediately. The
  /// background read is ALWAYS unmetered and page-cache neutral (opts.metering
  /// is ignored); the model is charged at consumption time via
  /// FinishStagedRead. The task evaluates the "io.prefetch" and
  /// "storage.read" fail-points (in that order) before touching storage.
  std::shared_ptr<AsyncReadHandle> ReadAsync(const std::string& key,
                                             ReadOptions opts,
                                             ThreadPool* pool);

  /// Meters a read of `bytes` from blob `key` (total size `blob_size`) as if
  /// it happened now, consulting/updating the page cache. Returns the
  /// cache-hit flag. This is how staged (prefetched) bytes are charged at
  /// their original consumption point, keeping modeled I/O and LRU evolution
  /// bit-identical with prefetch on or off. No fail-point: injection happens
  /// at the data read, never at the accounting step.
  bool FinishStagedRead(const std::string& key, uint64_t blob_size,
                        uint64_t bytes, IoClass cls);

  /// Charges `n` back-to-back reads of `bytes` each from blob `key`, leaving
  /// the meter and the page cache exactly as n FinishStagedRead calls would:
  /// per-record reads served by one unmetered ranged read keep their charge.
  void ChargeReads(const std::string& key, uint64_t blob_size, uint64_t bytes,
                   IoClass cls, uint64_t n);

  /// Registers the single observer invoked (under the storage lock) with the
  /// key of every mutation — Write/Append/WriteRange and Delete. The prefetch
  /// pipeline uses it to drop staged reads that no longer match the blob.
  /// Pass nullptr to unregister. The observer must not call back into this
  /// StorageService.
  void SetMutationObserver(std::function<void(const std::string&)> observer);

  /// Overwrites `data.size()` bytes at `offset` within an existing blob.
  virtual Status WriteRange(const std::string& key, uint64_t offset, Slice data,
                            IoClass cls) = 0;

  /// Durability barrier for the blob at `key`: returns once previously
  /// written data is considered persistent. Both backends are synchronous, so
  /// this is a no-op seam — but it is a distinct fail-point site
  /// ("storage.sync"), letting tests model a write that lands and an fsync
  /// that fails (the classic torn-durability case).
  virtual Status Sync(const std::string& key) {
    (void)key;
    return FailPointCheck("storage.sync");
  }

  virtual bool Exists(const std::string& key) const = 0;
  virtual Status Delete(const std::string& key) = 0;
  /// Size in bytes of the blob, or 0 if absent.
  virtual uint64_t SizeOf(const std::string& key) const = 0;
  /// All keys with the given prefix, sorted.
  virtual std::vector<std::string> ListKeys(const std::string& prefix) const = 0;

  DiskMeter* meter() { return &meter_; }
  const DiskMeter& meter() const { return meter_; }

 protected:
  /// Backend data plane: copies `len` bytes of `key` starting at `offset`
  /// into `*out`. Called with the storage lock held and the range already
  /// validated against SizeOf; no metering, no cache, no fail-points.
  virtual Status ReadRawLocked(const std::string& key, uint64_t offset,
                               uint64_t len, std::vector<uint8_t>* out) = 0;

  /// Meters a read (lock held). Returns true when served from the page cache.
  bool MeterRead(const std::string& key, uint64_t blob_size, uint64_t bytes,
                 IoClass cls);
  /// Meters a write, refreshes the blob's cache entry, and notifies the
  /// mutation observer.
  void MeterWrite(const std::string& key, uint64_t blob_size, uint64_t bytes,
                  IoClass cls);
  void DropFromCache(const std::string& key);
  /// Invokes the mutation observer (lock held). Delete impls call this after
  /// DropFromCache; writes are covered via MeterWrite.
  void NotifyMutation(const std::string& key);

  /// Serializes blob data, meter and page-cache state. Recursive because
  /// backend methods compose (FileStorage::Append consults SizeOf()).
  mutable std::recursive_mutex mutex_;
  DiskMeter meter_;

 private:
  /// Resolve + raw read + optional metering, shared by Read and ReadAsync.
  Result<ReadResult> ReadImpl(const std::string& key, const ReadOptions& opts);

  bool CacheLookupOrInsert(const std::string& key, uint64_t blob_size);
  void CacheInsert(const std::string& key, uint64_t blob_size);
  void CacheEvictToFit();

  uint64_t page_cache_capacity_ = 0;
  uint64_t page_cache_used_ = 0;
  std::list<std::pair<std::string, uint64_t>> cache_order_;
  std::map<std::string, std::list<std::pair<std::string, uint64_t>>::iterator>
      cache_map_;
  std::function<void(const std::string&)> mutation_observer_;
};

/// \brief In-memory backend: blobs live in a map; access is metered exactly
/// like the file backend so modeled I/O time is identical.
class MemStorage : public StorageService {
 public:
  Status Write(const std::string& key, Slice data, IoClass cls) override;
  Status Append(const std::string& key, Slice data, IoClass cls) override;
  Status WriteRange(const std::string& key, uint64_t offset, Slice data,
                    IoClass cls) override;
  bool Exists(const std::string& key) const override;
  Status Delete(const std::string& key) override;
  uint64_t SizeOf(const std::string& key) const override;
  std::vector<std::string> ListKeys(const std::string& prefix) const override;

 protected:
  Status ReadRawLocked(const std::string& key, uint64_t offset, uint64_t len,
                       std::vector<uint8_t>* out) override;

 private:
  std::map<std::string, std::vector<uint8_t>> blobs_;
};

/// \brief File-backed backend: each key maps to a file under `root_dir`
/// (slashes in keys become subdirectories).
class FileStorage : public StorageService {
 public:
  /// Creates `root_dir` if needed.
  static Result<std::unique_ptr<FileStorage>> Open(const std::string& root_dir);

  Status Write(const std::string& key, Slice data, IoClass cls) override;
  Status Append(const std::string& key, Slice data, IoClass cls) override;
  Status WriteRange(const std::string& key, uint64_t offset, Slice data,
                    IoClass cls) override;
  bool Exists(const std::string& key) const override;
  Status Delete(const std::string& key) override;
  uint64_t SizeOf(const std::string& key) const override;
  std::vector<std::string> ListKeys(const std::string& prefix) const override;

  const std::string& root_dir() const { return root_dir_; }

 protected:
  Status ReadRawLocked(const std::string& key, uint64_t offset, uint64_t len,
                       std::vector<uint8_t>* out) override;

 private:
  explicit FileStorage(std::string root_dir) : root_dir_(std::move(root_dir)) {}
  std::string PathFor(const std::string& key) const;
  /// Write (truncating) or Append: the file write and its metering.
  Status WriteFile(const std::string& key, Slice data, IoClass cls,
                   bool append);

  std::string root_dir_;
};

}  // namespace hybridgraph
