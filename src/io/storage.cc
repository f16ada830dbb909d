#include "io/storage.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hybridgraph {

namespace fs = std::filesystem;

namespace {

uint64_t SteadyNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------- AsyncReadHandle

bool AsyncReadHandle::Poll() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

Result<ReadResult> AsyncReadHandle::Take() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return done_; });
  return std::move(result_);
}

void AsyncReadHandle::Cancel() {
  cancelled_.store(true, std::memory_order_release);
}

void AsyncReadHandle::Complete(Result<ReadResult> r, uint64_t start_us,
                               uint64_t end_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  result_ = std::move(r);
  start_us_ = start_us;
  end_us_ = end_us;
  done_ = true;
  cv_.notify_all();
}

// ----------------------------------------------------- page cache (in base)

bool StorageService::CacheLookupOrInsert(const std::string& key,
                                         uint64_t blob_size) {
  if (page_cache_capacity_ == 0) return false;
  auto it = cache_map_.find(key);
  if (it != cache_map_.end()) {
    cache_order_.splice(cache_order_.begin(), cache_order_, it->second);
    return true;
  }
  CacheInsert(key, blob_size);
  return false;
}

void StorageService::CacheInsert(const std::string& key, uint64_t blob_size) {
  if (page_cache_capacity_ == 0 || blob_size > page_cache_capacity_) return;
  auto it = cache_map_.find(key);
  if (it != cache_map_.end()) {
    page_cache_used_ -= it->second->second;
    it->second->second = blob_size;
    page_cache_used_ += blob_size;
    cache_order_.splice(cache_order_.begin(), cache_order_, it->second);
  } else {
    cache_order_.emplace_front(key, blob_size);
    cache_map_[key] = cache_order_.begin();
    page_cache_used_ += blob_size;
  }
  CacheEvictToFit();
}

void StorageService::CacheEvictToFit() {
  while (page_cache_used_ > page_cache_capacity_ && !cache_order_.empty()) {
    auto& victim = cache_order_.back();
    page_cache_used_ -= victim.second;
    cache_map_.erase(victim.first);
    cache_order_.pop_back();
  }
}

void StorageService::DropFromCache(const std::string& key) {
  auto it = cache_map_.find(key);
  if (it == cache_map_.end()) return;
  page_cache_used_ -= it->second->second;
  cache_order_.erase(it->second);
  cache_map_.erase(it);
}

void StorageService::NotifyMutation(const std::string& key) {
  if (mutation_observer_) mutation_observer_(key);
}

void StorageService::SetMutationObserver(
    std::function<void(const std::string&)> observer) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  mutation_observer_ = std::move(observer);
}

// ------------------------------------------------------------- read surface

Result<ReadResult> StorageService::ReadImpl(const std::string& key,
                                            const ReadOptions& opts) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (!Exists(key)) return Status::NotFound("no blob: " + key);
  const uint64_t size = SizeOf(key);
  uint64_t len;
  if (opts.length == kReadAll) {
    len = opts.offset >= size ? 0 : size - opts.offset;
  } else if (opts.offset > size || opts.length > size - opts.offset) {
    if (!opts.allow_short) {
      return Status::OutOfRange(StringFormat(
          "read [%llu,%llu) past blob size %llu of %s",
          static_cast<unsigned long long>(opts.offset),
          static_cast<unsigned long long>(opts.offset + opts.length),
          static_cast<unsigned long long>(size), key.c_str()));
    }
    len = opts.offset >= size ? 0 : size - opts.offset;
  } else {
    len = opts.length;
  }
  ReadResult res;
  res.blob_size = size;
  HG_RETURN_IF_ERROR(ReadRawLocked(key, opts.offset, len, &res.data));
  if (opts.metering) res.cache_hit = MeterRead(key, size, len, opts.io_class);
  return res;
}

Result<ReadResult> StorageService::Read(const std::string& key,
                                        const ReadOptions& opts) {
  // Fail-point first, before the storage lock: an injected delay stalls this
  // reader only, never serializing concurrent readers behind the lock.
  HG_FAIL_POINT("storage.read");
  return ReadImpl(key, opts);
}

std::shared_ptr<AsyncReadHandle> StorageService::ReadAsync(
    const std::string& key, ReadOptions opts, ThreadPool* pool) {
  auto handle = std::make_shared<AsyncReadHandle>();
  // The background stage only moves bytes; metering and cache updates happen
  // at the consumption point (FinishStagedRead) in consumption order.
  opts.metering = false;
  pool->Submit([this, handle, key, opts] {
    const uint64_t start = SteadyNowUs();
    Result<ReadResult> r = [&]() -> Result<ReadResult> {
      if (handle->cancelled()) {
        return Status::FailedPrecondition("async read cancelled: " + key);
      }
      HG_FAIL_POINT("io.prefetch");
      HG_FAIL_POINT("storage.read");
      return ReadImpl(key, opts);
    }();
    handle->Complete(std::move(r), start, SteadyNowUs());
  });
  return handle;
}

bool StorageService::FinishStagedRead(const std::string& key,
                                      uint64_t blob_size, uint64_t bytes,
                                      IoClass cls) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return MeterRead(key, blob_size, bytes, cls);
}

void StorageService::ChargeReads(const std::string& key, uint64_t blob_size,
                                 uint64_t bytes, IoClass cls, uint64_t n) {
  if (n == 0) return;
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  MeterRead(key, blob_size, bytes, cls);
  // After the first read the blob is at the LRU front if it fits at all, so
  // the other n-1 all hit (their splices are no-ops) or all miss.
  if (page_cache_capacity_ != 0 && cache_map_.count(key) != 0) {
    meter_.RecordCached(cls, bytes * (n - 1), n - 1);
  } else {
    meter_.Record(cls, bytes * (n - 1), n - 1);
  }
}

bool StorageService::MeterRead(const std::string& key, uint64_t blob_size,
                               uint64_t bytes, IoClass cls) {
  if (CacheLookupOrInsert(key, blob_size)) {
    meter_.RecordCached(cls, bytes);
    return true;
  }
  meter_.Record(cls, bytes);
  return false;
}

void StorageService::MeterWrite(const std::string& key, uint64_t blob_size,
                                uint64_t bytes, IoClass cls) {
  // Write-through: device cost always; written pages land in the cache.
  meter_.Record(cls, bytes);
  CacheInsert(key, blob_size);
  NotifyMutation(key);
}

// ---------------------------------------------------------------- MemStorage

Status MemStorage::Write(const std::string& key, Slice data, IoClass cls) {
  HG_FAIL_POINT("storage.write");
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  blobs_[key].assign(data.data(), data.data() + data.size());
  MeterWrite(key, data.size(), data.size(), cls);
  return Status::OK();
}

Status MemStorage::Append(const std::string& key, Slice data, IoClass cls) {
  HG_FAIL_POINT("storage.write");
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  auto& blob = blobs_[key];
  blob.insert(blob.end(), data.data(), data.data() + data.size());
  MeterWrite(key, blob.size(), data.size(), cls);
  return Status::OK();
}

Status MemStorage::ReadRawLocked(const std::string& key, uint64_t offset,
                                 uint64_t len, std::vector<uint8_t>* out) {
  auto it = blobs_.find(key);
  if (it == blobs_.end()) return Status::NotFound("no blob: " + key);
  const auto& blob = it->second;
  out->assign(blob.begin() + static_cast<ptrdiff_t>(offset),
              blob.begin() + static_cast<ptrdiff_t>(offset + len));
  return Status::OK();
}

Status MemStorage::WriteRange(const std::string& key, uint64_t offset,
                              Slice data, IoClass cls) {
  HG_FAIL_POINT("storage.write");
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  auto it = blobs_.find(key);
  if (it == blobs_.end()) return Status::NotFound("no blob: " + key);
  auto& blob = it->second;
  if (offset + data.size() > blob.size()) {
    return Status::OutOfRange("range write past end of " + key);
  }
  std::copy(data.data(), data.data() + data.size(),
            blob.begin() + static_cast<ptrdiff_t>(offset));
  MeterWrite(key, blob.size(), data.size(), cls);
  return Status::OK();
}

bool MemStorage::Exists(const std::string& key) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return blobs_.count(key) > 0;
}

Status MemStorage::Delete(const std::string& key) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  blobs_.erase(key);
  DropFromCache(key);
  NotifyMutation(key);
  return Status::OK();
}

uint64_t MemStorage::SizeOf(const std::string& key) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  auto it = blobs_.find(key);
  return it == blobs_.end() ? 0 : it->second.size();
}

std::vector<std::string> MemStorage::ListKeys(const std::string& prefix) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::vector<std::string> out;
  for (auto it = blobs_.lower_bound(prefix); it != blobs_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

// --------------------------------------------------------------- FileStorage

Result<std::unique_ptr<FileStorage>> FileStorage::Open(const std::string& root_dir) {
  std::error_code ec;
  fs::create_directories(root_dir, ec);
  if (ec) {
    return Status::IoError("cannot create storage dir " + root_dir + ": " +
                           ec.message());
  }
  return std::unique_ptr<FileStorage>(new FileStorage(root_dir));
}

std::string FileStorage::PathFor(const std::string& key) const {
  return root_dir_ + "/" + key;
}

Status FileStorage::Write(const std::string& key, Slice data, IoClass cls) {
  return WriteFile(key, data, cls, /*append=*/false);
}

Status FileStorage::Append(const std::string& key, Slice data, IoClass cls) {
  return WriteFile(key, data, cls, /*append=*/true);
}

Status FileStorage::WriteFile(const std::string& key, Slice data, IoClass cls,
                              bool append) {
  HG_FAIL_POINT("storage.write");
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  const std::string path = PathFor(key);
  const std::string what = append ? "append" : "write";
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  std::ofstream f(path, std::ios::binary |
                            (append ? std::ios::app : std::ios::trunc));
  if (!f) return Status::IoError("cannot open for " + what + ": " + path);
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!f) return Status::IoError(what + " failed: " + path);
  MeterWrite(key, append ? SizeOf(key) : data.size(), data.size(), cls);
  return Status::OK();
}

Status FileStorage::ReadRawLocked(const std::string& key, uint64_t offset,
                                  uint64_t len, std::vector<uint8_t>* out) {
  const std::string path = PathFor(key);
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::NotFound("no blob file: " + path);
  f.seekg(static_cast<std::streamoff>(offset));
  out->resize(static_cast<size_t>(len));
  if (len > 0 && !f.read(reinterpret_cast<char*>(out->data()),
                         static_cast<std::streamsize>(len))) {
    return Status::IoError("read failed: " + path);
  }
  return Status::OK();
}

Status FileStorage::WriteRange(const std::string& key, uint64_t offset,
                               Slice data, IoClass cls) {
  HG_FAIL_POINT("storage.write");
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  const std::string path = PathFor(key);
  if (!Exists(key)) return Status::NotFound("no blob file: " + path);
  if (offset + data.size() > SizeOf(key)) {
    return Status::OutOfRange("range write past end of " + path);
  }
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!f) return Status::NotFound("no blob file: " + path);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!f) return Status::IoError("range write failed: " + path);
  MeterWrite(key, SizeOf(key), data.size(), cls);
  return Status::OK();
}

bool FileStorage::Exists(const std::string& key) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return fs::exists(PathFor(key));
}

Status FileStorage::Delete(const std::string& key) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::error_code ec;
  fs::remove(PathFor(key), ec);
  DropFromCache(key);
  NotifyMutation(key);
  return Status::OK();
}

uint64_t FileStorage::SizeOf(const std::string& key) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::error_code ec;
  const auto size = fs::file_size(PathFor(key), ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

std::vector<std::string> FileStorage::ListKeys(const std::string& prefix) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::vector<std::string> out;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root_dir_, ec);
       !ec && it != fs::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file()) continue;
    std::string rel = fs::relative(it->path(), root_dir_, ec).string();
    if (rel.compare(0, prefix.size(), prefix) == 0) out.push_back(rel);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hybridgraph
