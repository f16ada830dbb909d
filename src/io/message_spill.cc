#include "io/message_spill.h"

#include <algorithm>
#include <cstring>

#include "util/failpoint.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hybridgraph {

namespace {

constexpr size_t kRunHeaderBytes = 8;  // fixed64 entry count

// SpillRun's LSD radix digit: three passes cover any 32-bit span, and the
// 2,048 counters per pass stay in L1.
constexpr int kRadixBits = 11;
constexpr uint32_t kRadixMask = (1u << kRadixBits) - 1;

}  // namespace

MessageSpill::MessageSpill(StorageService* storage, std::string key_prefix,
                           size_t payload_size)
    : storage_(storage),
      key_prefix_(std::move(key_prefix)),
      payload_size_(payload_size) {}

std::string MessageSpill::RunKey(size_t i) const {
  return StringFormat("%s/run-%06zu", key_prefix_.c_str(), i);
}

void MessageSpill::SortByDst(const uint8_t* records, size_t n) {
  const size_t record_size = 4 + payload_size_;
  uint32_t lo = UINT32_MAX;
  uint32_t hi = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t dst = DecodeFixed<uint32_t>(records + i * record_size);
    lo = std::min(lo, dst);
    hi = std::max(hi, dst);
  }
  // One pass per kRadixBits-bit digit of the span; a run for one
  // destination needs none (position order is already stable).
  int passes = 0;
  for (uint64_t span = hi - lo; span != 0; span >>= kRadixBits) ++passes;
  sort_keys_.resize(n);
  sort_tmp_.resize(n);
  digit_counts_.assign(static_cast<size_t>(passes) << kRadixBits, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t rel = DecodeFixed<uint32_t>(records + i * record_size) - lo;
    sort_keys_[i] = (static_cast<uint64_t>(rel) << 32) | i;
    for (int p = 0; p < passes; ++p) {
      ++digit_counts_[(static_cast<size_t>(p) << kRadixBits) |
                      ((rel >> (p * kRadixBits)) & kRadixMask)];
    }
  }
  // LSD passes: each scatter is stable, so ties keep position order.
  for (int p = 0; p < passes; ++p) {
    uint32_t* count =
        digit_counts_.data() + (static_cast<size_t>(p) << kRadixBits);
    const int shift = 32 + p * kRadixBits;
    if (count[(sort_keys_[0] >> shift) & kRadixMask] == n) continue;  // no-op
    uint32_t sum = 0;
    for (uint32_t d = 0; d <= kRadixMask; ++d) {
      const uint32_t c = count[d];
      count[d] = sum;
      sum += c;
    }
    for (const uint64_t key : sort_keys_) {
      sort_tmp_[count[(key >> shift) & kRadixMask]++] = key;
    }
    sort_keys_.swap(sort_tmp_);
  }
}

Status MessageSpill::SpillRun(Slice records) {
  if (records.empty()) return Status::OK();
  HG_FAIL_POINT("spill.flush");
  const size_t record_size = 4 + payload_size_;
  HG_DCHECK(records.size() % record_size == 0)
      << "spill input of " << records.size() << " bytes is not whole "
      << record_size << "-byte records";
  const size_t n = records.size() / record_size;
  HG_CHECK(n <= UINT32_MAX) << "spill run too large";
  SortByDst(records.data(), n);
  run_bytes_.resize(kRunHeaderBytes + records.size());
  uint8_t* out = run_bytes_.data() + kRunHeaderBytes;
  for (size_t k = 0; k < n; ++k) {
    std::memcpy(out + k * record_size,
                records.data() +
                    static_cast<uint32_t>(sort_keys_[k]) * record_size,
                record_size);
  }
  EncodeFixed(run_bytes_.data(), static_cast<uint64_t>(n));
  const Slice run(run_bytes_.data(), run_bytes_.size());
  // Write-then-register: the run only becomes visible (num_runs_) after the
  // blob is durably written. On any failure in between, delete the key so a
  // half-written run is never leaked (Clear() would not know about it).
  const std::string key = RunKey(num_runs_);
  Status st = storage_->Write(key, run, IoClass::kRandWrite);
  // Random write: destination-vertex order has no locality on disk.
  if (st.ok()) st = storage_->Sync(key);
  if (!st.ok()) {
    (void)storage_->Delete(key);  // best-effort; Clear() sweeps the prefix too
    return st;
  }
  ++num_runs_;
  num_messages_ += n;
  bytes_written_ += run.size();
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
      current_payload_(spill->payload_size_) {
  // At least one whole record per run, and chunks aligned to record size so
  // a refill never splits a record across reads.
  const uint64_t per_chunk =
      std::max<uint64_t>(1, buffer_bytes_per_run / record_size_);
  chunk_bytes_ = per_chunk * record_size_;
  HG_CHECK(spill->num_runs_ <= kRunMask) << "too many spill runs";
  runs_.resize(spill->num_runs_);
  for (size_t i = 0; i < runs_.size(); ++i) {
    runs_[i].key = spill->RunKey(i);
  }
  buffer_bytes_ = static_cast<uint64_t>(runs_.size()) * chunk_bytes_;
}

Status MessageSpill::MergeIterator::Open() {
  std::vector<uint64_t> leaves(runs_.size());
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
    leaves[i] = kExhausted | i;
    if (rc.disk_entries > 0) {
      HG_RETURN_IF_ERROR(Refill(&rc));
      leaves[i] = HeadKey(i);
    }
  }
  BuildTree(leaves);
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

uint64_t MessageSpill::MergeIterator::HeadKey(size_t ri) const {
  const RunCursor& rc = runs_[ri];
  const uint64_t dst = DecodeFixed<uint32_t>(rc.buf.data() + rc.buf_pos);
  return (dst << 32) | ri;
}

void MessageSpill::MergeIterator::BuildTree(
    const std::vector<uint64_t>& leaves) {
  const size_t k = leaves.size();
  tree_.assign(std::max<size_t>(k, 1), kExhausted);
  if (k == 0) return;
  // win[n] is the winning key below node n; leaves are k..2k-1. Every
  // internal node has two children, so any k works, powers of two or not.
  std::vector<uint64_t> win(2 * k);
  std::copy(leaves.begin(), leaves.end(), win.begin() + k);
  for (size_t n = k - 1; n >= 1; --n) {
    win[n] = std::min(win[2 * n], win[2 * n + 1]);
    tree_[n] = std::max(win[2 * n], win[2 * n + 1]);
  }
  tree_[0] = win[1];
}

void MessageSpill::MergeIterator::Replay(size_t ri, uint64_t key) {
  // min/max instead of a branch: which key wins is data-dependent, so a
  // branch here mispredicts about half the time.
  for (size_t n = (runs_.size() + ri) >> 1; n >= 1; n >>= 1) {
    const uint64_t loser = tree_[n];
    tree_[n] = std::max(loser, key);
    key = std::min(loser, key);
  }
  tree_[0] = key;
}

Status MessageSpill::MergeIterator::ConsumeWinner() {
  const size_t ri = tree_[0] & kRunMask;
  RunCursor& rc = runs_[ri];
  rc.buf_pos += record_size_;
  ++entries_read_;
  --resident_entries_;
  uint64_t key = kExhausted | ri;
  if (rc.buf_pos < rc.buf.size()) {
    key = HeadKey(ri);
  } else if (rc.disk_entries > 0) {
    HG_RETURN_IF_ERROR(Refill(&rc));
    key = HeadKey(ri);
  } else {
    rc.buf.clear();
    rc.buf.shrink_to_fit();
  }
  Replay(ri, key);
  return Status::OK();
}

Status MessageSpill::MergeIterator::PrimeNext() {
  if (tree_[0] >= kExhausted) {
    valid_ = false;
    return Status::OK();
  }
  const RunCursor& rc = runs_[tree_[0] & kRunMask];
  current_dst_ = static_cast<uint32_t>(tree_[0] >> 32);
  std::memcpy(current_payload_.data(), rc.buf.data() + rc.buf_pos + 4,
              payload_size_);
  HG_RETURN_IF_ERROR(ConsumeWinner());
  valid_ = true;
  peak_resident_entries_ = std::max(peak_resident_entries_, resident_entries_ + 1);
  return Status::OK();
}

Status MessageSpill::MergeIterator::Next() {
  if (!valid_) return Status::FailedPrecondition("merge iterator exhausted");
  Status st = PrimeNext();
  if (!st.ok()) valid_ = false;
  return st;
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
  return Status::OK();
}

}  // namespace hybridgraph
