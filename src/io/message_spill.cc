#include "io/message_spill.h"

#include <algorithm>
#include <cstring>

#include "util/failpoint.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hybridgraph {

namespace {

constexpr size_t kRunHeaderBytes = 8;  // fixed64 entry count

}  // namespace

MessageSpill::MessageSpill(StorageService* storage, std::string key_prefix,
                           size_t payload_size)
    : storage_(storage),
      key_prefix_(std::move(key_prefix)),
      payload_size_(payload_size) {}

std::string MessageSpill::RunKey(size_t i) const {
  return StringFormat("%s/run-%06zu", key_prefix_.c_str(), i);
}

Status MessageSpill::SpillRun(const RecordSlab& records) {
  if (records.empty()) return Status::OK();
  HG_FAIL_POINT("spill.flush");
  HG_DCHECK(records.payload_size() == payload_size_)
      << "payload size mismatch: " << records.payload_size() << " vs "
      << payload_size_;
  // Sorting (dst, slab position) keys is a stable sort by destination.
  HG_CHECK(records.count() <= UINT32_MAX) << "spill run too large";
  std::vector<uint64_t> keys(records.count());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = (static_cast<uint64_t>(records.dst(i)) << 32) | i;
  }
  std::sort(keys.begin(), keys.end());
  Buffer buf;
  buf.Reserve(kRunHeaderBytes + records.bytes().size());
  buf.bytes().resize(kRunHeaderBytes);  // fixed64 entry count, stored below
  uint64_t combined = 0;
  for (size_t k = 0; k < keys.size(); ++k) {
    const uint8_t* r = records.record(static_cast<uint32_t>(keys[k]));
    const bool same_dst = k > 0 && (keys[k] >> 32) == (keys[k - 1] >> 32);
    if (combiner_ != nullptr && same_dst) {
      // Fold into the first occurrence, in slab order.
      combiner_(buf.data() + buf.size() - payload_size_, r + 4);
      ++combined;
    } else {
      buf.Append(r, records.record_size());
    }
  }
  const uint64_t entries = keys.size() - combined;
  EncodeFixed(buf.data(), entries);
  // Write-then-register: the run only becomes visible (num_runs_) after the
  // blob is durably written. On any failure in between, delete the key so a
  // half-written run is never leaked (Clear() would not know about it).
  const std::string key = RunKey(num_runs_);
  Status st = storage_->Write(key, buf.AsSlice(), IoClass::kRandWrite);
  // Random write: destination-vertex order has no locality on disk.
  if (st.ok()) st = storage_->Sync(key);
  if (!st.ok()) {
    (void)storage_->Delete(key);  // best-effort; Clear() sweeps the prefix too
    return st;
  }
  ++num_runs_;
  num_messages_ += entries;
  bytes_written_ += buf.size();
  combined_at_spill_ += combined;
  return Status::OK();
}

// ------------------------------------------------------------ MergeIterator

MessageSpill::MergeIterator::MergeIterator(StorageService* storage,
                                           const MessageSpill* spill,
                                           uint64_t buffer_bytes_per_run,
                                           ReadPipeline* pipeline)
    : storage_(storage),
      pipeline_(pipeline),
      payload_size_(spill->payload_size_),
      record_size_(4 + spill->payload_size_),
      combiner_(spill->combiner_),
      current_payload_(spill->payload_size_) {
  // At least one whole record per run, and chunks aligned to record size so
  // a refill never splits a record across reads.
  const uint64_t per_chunk =
      std::max<uint64_t>(1, buffer_bytes_per_run / record_size_);
  chunk_bytes_ = per_chunk * record_size_;
  runs_.resize(spill->num_runs_);
  for (size_t i = 0; i < runs_.size(); ++i) {
    runs_[i].key = spill->RunKey(i);
  }
  buffer_bytes_ = static_cast<uint64_t>(runs_.size()) * chunk_bytes_;
}

Status MessageSpill::MergeIterator::Open() {
  for (size_t i = 0; i < runs_.size(); ++i) {
    RunCursor& rc = runs_[i];
    rc.file_size = storage_->SizeOf(rc.key);
    if (rc.file_size < kRunHeaderBytes) {
      return Status::Corruption(StringFormat(
          "spill run %s truncated: %llu bytes, header needs %zu", rc.key.c_str(),
          static_cast<unsigned long long>(rc.file_size), kRunHeaderBytes));
    }
    HG_ASSIGN_OR_RETURN(
        ReadResult header,
        storage_->Read(rc.key, {.length = kRunHeaderBytes,
                                .allow_short = true,
                                .io_class = IoClass::kSeqRead}));
    if (header.data.size() != kRunHeaderBytes) {
      return Status::Corruption("spill run header short read: " + rc.key);
    }
    Decoder dec{Slice(header.data.data(), header.data.size())};
    HG_RETURN_IF_ERROR(dec.GetFixed64(&rc.disk_entries));
    // Shape check BEFORE decoding anything: the blob must hold exactly
    // entry_count records. A bit-flipped count or a truncated blob fails
    // here instead of reading out of bounds during the merge.
    const uint64_t body = rc.file_size - kRunHeaderBytes;
    if (rc.disk_entries > body / record_size_ ||
        rc.disk_entries * record_size_ != body) {
      return Status::Corruption(StringFormat(
          "spill run %s corrupt: %llu entries × %zu bytes != %llu body bytes",
          rc.key.c_str(), static_cast<unsigned long long>(rc.disk_entries),
          record_size_, static_cast<unsigned long long>(body)));
    }
    rc.file_pos = kRunHeaderBytes;
    if (rc.disk_entries > 0) {
      HG_RETURN_IF_ERROR(Refill(&rc));
      heap_.emplace(rc.head_dst, i);
    }
  }
  return PrimeNext();
}

Status MessageSpill::MergeIterator::Refill(RunCursor* rc) {
  HG_FAIL_POINT("spill.merge");
  const uint64_t want =
      std::min<uint64_t>(chunk_bytes_, rc->disk_entries * record_size_);
  const ReadOptions opts{.offset = rc->file_pos,
                         .length = want,
                         .allow_short = true,
                         .io_class = IoClass::kSeqRead};
  auto read =
      pipeline_ ? pipeline_->Fetch(rc->key, opts) : storage_->Read(rc->key, opts);
  if (!read.ok()) return read.status();
  rc->buf = std::move(read->data);
  if (rc->buf.size() != want) {
    return Status::Corruption("spill run shrank mid-merge: " + rc->key);
  }
  rc->file_pos += want;
  const uint64_t loaded = want / record_size_;
  rc->disk_entries -= loaded;
  rc->buf_pos = 0;
  rc->head_dst = DecodeFixed<uint32_t>(rc->buf.data());
  rc->has_head = true;
  resident_entries_ += loaded;
  peak_resident_entries_ = std::max(peak_resident_entries_, resident_entries_ + 1);
  ScheduleNextChunk(*rc);
  return Status::OK();
}

void MessageSpill::MergeIterator::ScheduleNextChunk(const RunCursor& rc) {
  if (pipeline_ == nullptr || rc.disk_entries == 0) return;
  // Exactly the shape the next Refill will request, so the staged entry
  // matches on (key, offset, length).
  const uint64_t want =
      std::min<uint64_t>(chunk_bytes_, rc.disk_entries * record_size_);
  pipeline_->Schedule(rc.key, {.offset = rc.file_pos,
                               .length = want,
                               .allow_short = true,
                               .io_class = IoClass::kSeqRead});
}

Status MessageSpill::MergeIterator::ConsumeHead(size_t ri) {
  RunCursor& rc = runs_[ri];
  rc.buf_pos += record_size_;
  ++entries_read_;
  --resident_entries_;
  if (rc.buf_pos == rc.buf.size()) {
    if (rc.disk_entries == 0) {
      rc.has_head = false;
      rc.buf.clear();
      rc.buf.shrink_to_fit();
      return Status::OK();
    }
    HG_RETURN_IF_ERROR(Refill(&rc));
  } else {
    rc.head_dst = DecodeFixed<uint32_t>(rc.buf.data() + rc.buf_pos);
  }
  heap_.emplace(rc.head_dst, ri);
  return Status::OK();
}

Status MessageSpill::MergeIterator::PrimeNext() {
  if (heap_.empty()) {
    valid_ = false;
    return Status::OK();
  }
  const auto [dst, ri] = heap_.top();
  heap_.pop();
  RunCursor& rc = runs_[ri];
  current_dst_ = dst;
  std::memcpy(current_payload_.data(), rc.buf.data() + rc.buf_pos + 4,
              payload_size_);
  HG_RETURN_IF_ERROR(ConsumeHead(ri));
  if (combiner_ != nullptr) {
    // Fold every remaining entry for this destination into the current one.
    // The heap always surfaces the minimal (dst, run) pair, so the fold
    // order — run by run, spill order within a run — is deterministic.
    while (!heap_.empty() && heap_.top().first == current_dst_) {
      const size_t rj = heap_.top().second;
      heap_.pop();
      RunCursor& rc2 = runs_[rj];
      combiner_(current_payload_.data(), rc2.buf.data() + rc2.buf_pos + 4);
      ++merge_combined_;
      HG_RETURN_IF_ERROR(ConsumeHead(rj));
    }
  }
  ++entries_emitted_;
  valid_ = true;
  peak_resident_entries_ = std::max(peak_resident_entries_, resident_entries_ + 1);
  return Status::OK();
}

Status MessageSpill::MergeIterator::Next() {
  if (!valid_) return Status::FailedPrecondition("merge iterator exhausted");
  return PrimeNext();
}

Result<std::unique_ptr<MessageSpill::MergeIterator>>
MessageSpill::NewMergeIterator(uint64_t buffer_bytes_per_run,
                               ReadPipeline* pipeline) {
  std::unique_ptr<MergeIterator> it(
      new MergeIterator(storage_, this, buffer_bytes_per_run, pipeline));
  HG_RETURN_IF_ERROR(it->Open());
  return it;
}

void MessageSpill::WarmupMerge(uint64_t buffer_bytes_per_run,
                               ReadPipeline* pipeline) const {
  if (pipeline == nullptr || !pipeline->enabled() || num_runs_ == 0) return;
  const size_t record_size = 4 + payload_size_;
  const uint64_t per_chunk =
      std::max<uint64_t>(1, buffer_bytes_per_run / record_size);
  const uint64_t chunk_bytes = per_chunk * record_size;
  for (size_t i = 0; i < num_runs_; ++i) {
    const std::string key = RunKey(i);
    const uint64_t size = storage_->SizeOf(key);
    if (size <= kRunHeaderBytes) continue;
    // For a well-formed run, body bytes == disk_entries × record_size, so
    // this equals the first Refill's `want` and the staged entry matches on
    // (key, offset, length). A malformed run just never gets claimed.
    const uint64_t want =
        std::min<uint64_t>(chunk_bytes, size - kRunHeaderBytes);
    pipeline->Schedule(key, {.offset = kRunHeaderBytes,
                             .length = want,
                             .allow_short = true,
                             .io_class = IoClass::kSeqRead});
  }
}

Status MessageSpill::MergeReadAll(RecordSlab* out) {
  if (num_runs_ == 0) return Status::OK();
  HG_ASSIGN_OR_RETURN(auto it, NewMergeIterator(kDefaultMergeBufferBytes));
  while (it->Valid()) {
    out->Append(it->dst(), it->payload());
    HG_RETURN_IF_ERROR(it->Next());
  }
  return Status::OK();
}

Status MessageSpill::Clear() {
  // Prefix sweep rather than 0..num_runs_: also collects any orphan blob a
  // crash left between write and registration (e.g. after recovery restores
  // into storage that still holds a dead incarnation's runs).
  for (const auto& key : storage_->ListKeys(key_prefix_ + "/")) {
    HG_RETURN_IF_ERROR(storage_->Delete(key));
  }
  num_runs_ = 0;
  num_messages_ = 0;
  bytes_written_ = 0;
  combined_at_spill_ = 0;
  return Status::OK();
}

}  // namespace hybridgraph
