#include "io/message_spill.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <tuple>
#include <utility>
#include <vector>

#include "util/failpoint.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace hybridgraph {
namespace {

void Put(RecordSlab* run, uint32_t dst, uint32_t value) {
  std::memcpy(run->Append(dst), &value, 4);
}

/// A slab of (dst, 4-byte value) records in the given order.
RecordSlab Records(
    std::initializer_list<std::pair<uint32_t, uint32_t>> records) {
  RecordSlab run(4);
  for (const auto& [dst, value] : records) Put(&run, dst, value);
  return run;
}

uint32_t PayloadValue(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

TEST(MessageSpill, SingleRunSortedByDst) {
  MemStorage storage;
  MessageSpill spill(&storage, "t", 4);
  ASSERT_TRUE(
      spill.SpillRun(Records({{5, 50}, {1, 10}, {3, 30}}).bytes()).ok());
  EXPECT_EQ(spill.num_runs(), 1u);
  EXPECT_EQ(spill.num_messages(), 3u);

  RecordSlab out(4);
  ASSERT_TRUE(spill.MergeReadAll(&out).ok());
  ASSERT_EQ(out.count(), 3u);
  EXPECT_EQ(out.dst(0), 1u);
  EXPECT_EQ(out.dst(1), 3u);
  EXPECT_EQ(out.dst(2), 5u);
  EXPECT_EQ(PayloadValue(out.payload(2)), 50u);
}

TEST(MessageSpill, MergeAcrossRunsGroupsDestinations) {
  MemStorage storage;
  MessageSpill spill(&storage, "t", 4);
  ASSERT_TRUE(spill.SpillRun(Records({{2, 1}, {4, 2}}).bytes()).ok());
  ASSERT_TRUE(spill.SpillRun(Records({{2, 3}, {1, 4}}).bytes()).ok());
  ASSERT_TRUE(spill.SpillRun(Records({{4, 5}}).bytes()).ok());

  RecordSlab out(4);
  ASSERT_TRUE(spill.MergeReadAll(&out).ok());
  ASSERT_EQ(out.count(), 5u);
  // Non-decreasing by destination; all messages for one dst adjacent.
  for (size_t i = 1; i < out.count(); ++i) {
    EXPECT_LE(out.dst(i - 1), out.dst(i));
  }
  EXPECT_EQ(out.dst(0), 1u);
  EXPECT_EQ(out.dst(1), 2u);
  EXPECT_EQ(out.dst(2), 2u);
}

TEST(MessageSpill, EmptyRunIsNoop) {
  MemStorage storage;
  MessageSpill spill(&storage, "t", 4);
  ASSERT_TRUE(spill.SpillRun(RecordSlab(4).bytes()).ok());
  EXPECT_EQ(spill.num_runs(), 0u);
  RecordSlab out(4);
  ASSERT_TRUE(spill.MergeReadAll(&out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(MessageSpill, WritesAreRandomReadsSequential) {
  // The I/O classes are the paper's model: spills are random writes (poor
  // destination locality), merge reads are sequential.
  MemStorage storage;
  MessageSpill spill(&storage, "t", 4);
  ASSERT_TRUE(spill.SpillRun(Records({{1, 1}, {2, 2}}).bytes()).ok());
  EXPECT_GT(storage.meter()->bytes(IoClass::kRandWrite), 0u);
  EXPECT_EQ(storage.meter()->bytes(IoClass::kSeqRead) +
                storage.meter()->cached_bytes(IoClass::kSeqRead),
            0u);
  RecordSlab out(4);
  ASSERT_TRUE(spill.MergeReadAll(&out).ok());
  EXPECT_GT(storage.meter()->bytes(IoClass::kSeqRead) +
                storage.meter()->cached_bytes(IoClass::kSeqRead),
            0u);
}

TEST(MessageSpill, ClearResetsAndDeletesBlobs) {
  MemStorage storage;
  MessageSpill spill(&storage, "t", 4);
  ASSERT_TRUE(spill.SpillRun(Records({{1, 1}}).bytes()).ok());
  EXPECT_FALSE(storage.ListKeys("t/").empty());
  ASSERT_TRUE(spill.Clear().ok());
  EXPECT_EQ(spill.num_runs(), 0u);
  EXPECT_EQ(spill.num_messages(), 0u);
  EXPECT_TRUE(storage.ListKeys("t/").empty());
  // Reusable after clear.
  ASSERT_TRUE(spill.SpillRun(Records({{7, 7}}).bytes()).ok());
  RecordSlab out(4);
  ASSERT_TRUE(spill.MergeReadAll(&out).ok());
  ASSERT_EQ(out.count(), 1u);
  EXPECT_EQ(out.dst(0), 7u);
}

class SpillFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpillFuzzTest, RandomRunsMergeSorted) {
  Rng rng(GetParam());
  MemStorage storage;
  MessageSpill spill(&storage, "t", 4);
  uint64_t total = 0;
  std::vector<uint64_t> per_dst_count(64, 0);
  const int runs = 2 + rng.NextBounded(6);
  for (int r = 0; r < runs; ++r) {
    RecordSlab run(4);
    const int n = 1 + rng.NextBounded(200);
    for (int i = 0; i < n; ++i) {
      const uint32_t dst = static_cast<uint32_t>(rng.NextBounded(64));
      Put(&run, dst, dst * 1000);
      ++per_dst_count[dst];
      ++total;
    }
    ASSERT_TRUE(spill.SpillRun(run.bytes()).ok());
  }
  RecordSlab out(4);
  ASSERT_TRUE(spill.MergeReadAll(&out).ok());
  ASSERT_EQ(out.count(), total);
  std::vector<uint64_t> seen(64, 0);
  for (size_t i = 0; i < out.count(); ++i) {
    if (i > 0) {
      ASSERT_LE(out.dst(i - 1), out.dst(i));
    }
    ASSERT_EQ(PayloadValue(out.payload(i)), out.dst(i) * 1000);
    ++seen[out.dst(i)];
  }
  EXPECT_EQ(seen, per_dst_count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillFuzzTest, ::testing::Values(1, 7, 21, 99));

// ---------------------------------------------------------------- streaming

/// One message of the reference model, kept apart from the slab under test.
struct RefMessage {
  uint32_t dst;
  std::vector<uint8_t> payload;
};

void StableSortByDst(std::vector<RefMessage>* messages) {
  std::stable_sort(
      messages->begin(), messages->end(),
      [](const RefMessage& a, const RefMessage& b) { return a.dst < b.dst; });
}

// Reference merge semantics: a stable sort by destination of the runs
// concatenated in spill order. This is what the old materializing
// implementation produced and what the streaming (dst, run index) heap must
// reproduce bit-for-bit.
std::vector<RefMessage> ReferenceMerge(std::vector<RefMessage> concatenated) {
  StableSortByDst(&concatenated);
  return concatenated;
}

bool SamePayload(const uint8_t* got, const std::vector<uint8_t>& want) {
  return std::memcmp(got, want.data(), want.size()) == 0;
}

std::vector<uint8_t> WidePayload(Rng* rng, size_t n) {
  std::vector<uint8_t> p(n);
  for (auto& b : p) b = static_cast<uint8_t>(rng->NextBounded(256));
  return p;
}

class StreamingDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingDifferentialTest, StreamingEqualsMaterializingReference) {
  Rng rng(GetParam());
  constexpr size_t kPayload = 12;
  MemStorage storage;
  MessageSpill spill(&storage, "t", kPayload);
  // Build random runs, tracking what the reference (stable sort of the
  // concatenation) must produce. Spill order inside a run matters: SpillRun
  // stable-sorts, so pre-sorting the copy mirrors it.
  std::vector<RefMessage> concatenated;
  const int runs = 2 + static_cast<int>(rng.NextBounded(5));
  for (int r = 0; r < runs; ++r) {
    RecordSlab run(kPayload);
    std::vector<RefMessage> copy;
    const int n = 1 + static_cast<int>(rng.NextBounded(300));
    for (int i = 0; i < n; ++i) {
      copy.push_back({static_cast<uint32_t>(rng.NextBounded(48)),
                      WidePayload(&rng, kPayload)});
      run.Append(copy.back().dst, copy.back().payload.data());
    }
    StableSortByDst(&copy);
    for (auto& e : copy) concatenated.push_back(std::move(e));
    ASSERT_TRUE(spill.SpillRun(run.bytes()).ok());
  }
  const std::vector<RefMessage> want = ReferenceMerge(std::move(concatenated));

  // Exercise several buffer sizes including the degenerate one-record case
  // and a deliberately unaligned size (rounded down to whole records).
  for (uint64_t buf : {uint64_t{1}, uint64_t{4 + kPayload}, uint64_t{37},
                       uint64_t{256}, MessageSpill::kDefaultMergeBufferBytes}) {
    auto res = spill.NewMergeIterator(buf);
    ASSERT_TRUE(res.ok()) << res.status().message();
    auto it = std::move(res).value();
    size_t i = 0;
    while (it->Valid()) {
      ASSERT_LT(i, want.size());
      EXPECT_EQ(it->dst(), want[i].dst) << "buf=" << buf << " i=" << i;
      EXPECT_TRUE(SamePayload(it->payload(), want[i].payload))
          << "buf=" << buf << " i=" << i;
      ++i;
      ASSERT_TRUE(it->Next().ok());
    }
    EXPECT_EQ(i, want.size()) << "buf=" << buf;
    EXPECT_EQ(it->entries_read(), want.size());
  }

  // The materializing wrapper streams through the same iterator.
  RecordSlab out(kPayload);
  ASSERT_TRUE(spill.MergeReadAll(&out).ok());
  ASSERT_EQ(out.count(), want.size());
  for (size_t i = 0; i < out.count(); ++i) {
    EXPECT_EQ(out.dst(i), want[i].dst);
    EXPECT_TRUE(SamePayload(out.payload(i), want[i].payload));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingDifferentialTest,
                         ::testing::Values(3, 17, 4242, 31337));

TEST(MergeIterator, TieBreakIsRunOrderThenSpillOrder) {
  MemStorage storage;
  MessageSpill spill(&storage, "t", 4);
  // Three runs, all hitting dst 9; payloads encode (run, position).
  ASSERT_TRUE(spill.SpillRun(Records({{9, 100}, {9, 101}}).bytes()).ok());
  ASSERT_TRUE(spill.SpillRun(Records({{9, 200}}).bytes()).ok());
  ASSERT_TRUE(spill.SpillRun(Records({{9, 300}, {9, 301}}).bytes()).ok());

  RecordSlab out(4);
  ASSERT_TRUE(spill.MergeReadAll(&out).ok());
  ASSERT_EQ(out.count(), 5u);
  const uint32_t want[] = {100, 101, 200, 300, 301};
  for (size_t i = 0; i < out.count(); ++i) {
    EXPECT_EQ(out.dst(i), 9u);
    EXPECT_EQ(PayloadValue(out.payload(i)), want[i]) << "i=" << i;
  }
}

// ---------------------------------------------------------------- corruption

TEST(MergeIteratorCorruption, TruncatedRunIsCorruptionNotOob) {
  MemStorage storage;
  MessageSpill spill(&storage, "t", 4);
  RecordSlab run(4);
  for (uint32_t i = 0; i < 32; ++i) Put(&run, i, i);
  ASSERT_TRUE(spill.SpillRun(run.bytes()).ok());

  const std::string key = storage.ListKeys("t/")[0];
  auto read = storage.Read(key, {.io_class = IoClass::kSeqRead});
  ASSERT_TRUE(read.ok());
  std::vector<uint8_t> blob = std::move(read->data);
  // Chop mid-record: the header still promises 32 entries.
  blob.resize(blob.size() - 13);
  ASSERT_TRUE(storage
                  .Write(key, Slice(blob.data(), blob.size()),
                         IoClass::kRandWrite)
                  .ok());

  auto res = spill.NewMergeIterator(64);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCorruption)
      << res.status().message();
}

TEST(MergeIteratorCorruption, BitFlippedCountIsCorruptionNotOob) {
  MemStorage storage;
  MessageSpill spill(&storage, "t", 4);
  ASSERT_TRUE(spill.SpillRun(Records({{1, 1}, {2, 2}}).bytes()).ok());

  const std::string key = storage.ListKeys("t/")[0];
  auto read = storage.Read(key, {.io_class = IoClass::kSeqRead});
  ASSERT_TRUE(read.ok());
  std::vector<uint8_t> blob = std::move(read->data);
  for (int bit : {0, 7, 40, 63}) {  // low and high bits of the fixed64 count
    std::vector<uint8_t> flipped = blob;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ASSERT_TRUE(storage
                    .Write(key, Slice(flipped.data(), flipped.size()),
                           IoClass::kRandWrite)
                    .ok());
    auto res = spill.NewMergeIterator(64);
    ASSERT_FALSE(res.ok()) << "bit " << bit;
    EXPECT_EQ(res.status().code(), StatusCode::kCorruption) << "bit " << bit;
  }
}

TEST(MergeIteratorCorruption, RunBelowHeaderSizeIsCorruption) {
  MemStorage storage;
  MessageSpill spill(&storage, "t", 4);
  ASSERT_TRUE(spill.SpillRun(Records({{1, 1}}).bytes()).ok());
  const std::string key = storage.ListKeys("t/")[0];
  const uint8_t tiny[3] = {0, 1, 2};
  ASSERT_TRUE(storage.Write(key, Slice(tiny, 3), IoClass::kRandWrite).ok());
  auto res = spill.NewMergeIterator(64);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
}

// Randomized truncation/bit-flip fuzz: any single mutation either fails
// cleanly with Corruption or still yields exactly the promised entry count —
// never a crash or out-of-bounds read (ASan-checked in CI).
class CorruptionFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorruptionFuzzTest, MutatedRunNeverReadsOutOfBounds) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    MemStorage storage;
    MessageSpill spill(&storage, "t", 4);
    const int n = 1 + static_cast<int>(rng.NextBounded(60));
    RecordSlab run(4);
    for (int i = 0; i < n; ++i) {
      const uint32_t dst = static_cast<uint32_t>(rng.NextBounded(32));
      Put(&run, dst, static_cast<uint32_t>(rng.NextBounded(100)));
    }
    ASSERT_TRUE(spill.SpillRun(run.bytes()).ok());
    const std::string key = storage.ListKeys("t/")[0];
    auto read = storage.Read(key, {.io_class = IoClass::kSeqRead});
    ASSERT_TRUE(read.ok());
    std::vector<uint8_t> blob = std::move(read->data);
    if (rng.NextBounded(2) == 0 && blob.size() > 1) {
      blob.resize(1 + rng.NextBounded(blob.size() - 1));  // truncate
    } else {
      const size_t byte = rng.NextBounded(blob.size());
      blob[byte] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));  // flip
    }
    ASSERT_TRUE(storage
                    .Write(key, Slice(blob.data(), blob.size()),
                           IoClass::kRandWrite)
                    .ok());

    auto res = spill.NewMergeIterator(1 + rng.NextBounded(128));
    if (!res.ok()) {
      EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
      continue;
    }
    auto it = std::move(res).value();
    uint64_t emitted = 0;
    Status st;
    while (it->Valid()) {
      ++emitted;
      st = it->Next();
      if (!st.ok()) break;
    }
    if (st.ok()) {
      EXPECT_EQ(emitted, static_cast<uint64_t>(n));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionFuzzTest,
                         ::testing::Values(11, 1234, 987654));

// -------------------------------------------------------------------- memory

TEST(MergeIterator, ResidentEntriesStayWithinBufferBound) {
  Rng rng(8);
  constexpr size_t kPayload = 4;
  constexpr uint64_t kRecord = 4 + kPayload;
  MemStorage storage;
  MessageSpill spill(&storage, "t", kPayload);
  const size_t runs = 6;
  const int per_run = 500;
  for (size_t r = 0; r < runs; ++r) {
    RecordSlab run(kPayload);
    for (int i = 0; i < per_run; ++i) {
      Put(&run, static_cast<uint32_t>(rng.NextBounded(1000)),
          static_cast<uint32_t>(i));
    }
    ASSERT_TRUE(spill.SpillRun(run.bytes()).ok());
  }
  // 4 records of buffer per run: the merge must never hold more than
  // runs × 4 buffered entries (+1 for the exposed current entry), out of
  // 3000 spilled — the bounded-memory guarantee of the streaming drain.
  const uint64_t per_run_buf = 4 * kRecord;
  auto res = spill.NewMergeIterator(per_run_buf);
  ASSERT_TRUE(res.ok());
  auto it = std::move(res).value();
  EXPECT_EQ(it->buffer_bytes(), runs * per_run_buf);
  uint64_t emitted = 0;
  while (it->Valid()) {
    ++emitted;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(emitted, static_cast<uint64_t>(runs * per_run));
  EXPECT_LE(it->peak_resident_entries(), runs * 4 + 1);
  EXPECT_GT(it->peak_resident_entries(), 0u);
}

TEST(MergeIterator, OddBufferSizeRoundsDownToWholeRecords) {
  MemStorage storage;
  MessageSpill spill(&storage, "t", 4);
  ASSERT_TRUE(spill.SpillRun(Records({{1, 1}, {2, 2}}).bytes()).ok());
  auto res = spill.NewMergeIterator(19);  // 2 whole 8-byte records
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()->buffer_bytes(), 16u);
}

// ------------------------------------------------------------ orphaned runs

TEST(MessageSpillOrphans, FailedSyncLeavesNoStrayKeyAndSpillStaysUsable) {
  MemStorage storage;
  MessageSpill spill(&storage, "t", 4);
  {
    FailPointScope fp("storage.sync=error");
    ASSERT_TRUE(fp.status().ok());
    Status st = spill.SpillRun(Records({{1, 1}, {2, 2}}).bytes());
    EXPECT_FALSE(st.ok());
  }
  // Write-then-register: the failed run must not be visible anywhere.
  EXPECT_EQ(spill.num_runs(), 0u);
  EXPECT_EQ(spill.num_messages(), 0u);
  EXPECT_TRUE(storage.ListKeys("t/").empty());

  // The same key slot is reused cleanly once the fault clears.
  ASSERT_TRUE(spill.SpillRun(Records({{7, 7}}).bytes()).ok());
  RecordSlab out(4);
  ASSERT_TRUE(spill.MergeReadAll(&out).ok());
  ASSERT_EQ(out.count(), 1u);
  EXPECT_EQ(out.dst(0), 7u);
}

TEST(MessageSpillOrphans, ClearSweepsUnregisteredStrays) {
  MemStorage storage;
  MessageSpill spill(&storage, "t", 4);
  ASSERT_TRUE(spill.SpillRun(Records({{1, 1}}).bytes()).ok());
  // Simulate a dead incarnation's leftover: a run blob the live spill never
  // registered (e.g. written just before a crash).
  const uint8_t junk[8] = {1, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_TRUE(storage
                  .Write("t/run-000042", Slice(junk, 8), IoClass::kRandWrite)
                  .ok());
  ASSERT_TRUE(spill.Clear().ok());
  EXPECT_TRUE(storage.ListKeys("t/").empty());
}

// ------------------------------------------------------------ sort and merge
//
// The spill kernels against std::stable_sort: SpillRun's radix sort at every
// pass count, and the loser-tree merge at fan-ins that are 1, powers of two
// and neither.

/// An 8-byte payload unique enough that any reordering of equal
/// destinations shows up in the compared bytes.
std::vector<uint8_t> RandomPayload(Rng* rng) {
  const uint32_t ab[2] = {
      static_cast<uint32_t>(rng->NextBounded(UINT32_MAX)) | 1u,
      static_cast<uint32_t>(rng->NextBounded(UINT32_MAX))};
  std::vector<uint8_t> p(8);
  std::memcpy(p.data(), ab, 8);
  return p;
}

/// The run blob SpillRun must write for `messages` (in input order).
std::vector<uint8_t> ReferenceRunBlob(std::vector<RefMessage> messages) {
  StableSortByDst(&messages);
  std::vector<uint8_t> blob(8);
  const uint64_t count = messages.size();
  std::memcpy(blob.data(), &count, 8);
  for (const RefMessage& m : messages) {
    const uint8_t* dst = reinterpret_cast<const uint8_t*>(&m.dst);
    blob.insert(blob.end(), dst, dst + 4);
    blob.insert(blob.end(), m.payload.begin(), m.payload.end());
  }
  return blob;
}

struct RadixCase {
  const char* name;
  std::vector<uint32_t> dsts;  ///< candidate destinations
};

TEST(SpillRunRadix, RunBlobsEqualTheStableSortAtEveryPassCount) {
  // Spans of 0, < 2^11, < 2^22 and up to 2^32 - 1 need 0..3 digit passes;
  // the multiples of 2^11 share their low digit (a pass that moves nothing).
  std::vector<uint32_t> one_pass, two_pass, three_pass, high_only;
  for (uint32_t i = 0; i < 40; ++i) {
    one_pass.push_back(1000 + i * 51);
    two_pass.push_back(70000 + i * 100003);
    high_only.push_back(5 + i * 2048);
  }
  three_pass = {0u, 1u, 2047u, 2048u, 4194303u, 4194304u, 0x7FFFFFFFu,
                0xFFFFFFFEu, 0xFFFFFFFFu};
  const std::vector<RadixCase> cases = {{"one dst", {77}},
                                        {"one pass", one_pass},
                                        {"two passes", two_pass},
                                        {"three passes", three_pass},
                                        {"shared low digit", high_only}};
  Rng rng(11);
  MemStorage storage;
  MessageSpill spill(&storage, "t", 8);
  size_t run_index = 0;
  for (const RadixCase& c : cases) {
    for (const size_t n : {size_t{1}, size_t{2}, size_t{300}}) {
      std::vector<RefMessage> messages;
      RecordSlab run(8);
      for (size_t i = 0; i < n; ++i) {
        messages.push_back({c.dsts[rng.NextBounded(c.dsts.size())],
                            RandomPayload(&rng)});
        run.Append(messages.back().dst, messages.back().payload.data());
      }
      ASSERT_TRUE(spill.SpillRun(run.bytes()).ok());
      auto blob = storage.Read(StringFormat("t/run-%06zu", run_index++), {});
      ASSERT_TRUE(blob.ok());
      EXPECT_EQ(blob->data, ReferenceRunBlob(messages))
          << c.name << " n=" << n;
    }
  }
}

// The parameter's bool is always false: it is the retired spill-combining
// axis, kept so the k<N>_raw test names stay as they were.
class SpillMergeFanIn
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(SpillMergeFanIn, MergedOrderAndFoldOrderEqualTheStableSort) {
  const size_t fan_in = std::get<0>(GetParam());
  Rng rng(fan_in * 2);
  MemStorage storage;
  MessageSpill spill(&storage, "t", 8);
  // Destinations collide across runs, and include 0 and 0xFFFFFFFF: the
  // largest dst must not be mistaken for an exhausted run.
  const uint32_t dsts[] = {0u, 3u, 4u, 9u, 1000u, 0xFFFFFFFEu, 0xFFFFFFFFu};
  std::vector<RefMessage> concatenated;
  for (size_t r = 0; r < fan_in; ++r) {
    RecordSlab run(8);
    const size_t n = 1 + rng.NextBounded(24);
    for (size_t i = 0; i < n; ++i) {
      concatenated.push_back(
          {dsts[rng.NextBounded(std::size(dsts))], RandomPayload(&rng)});
      run.Append(concatenated.back().dst, concatenated.back().payload.data());
    }
    ASSERT_TRUE(spill.SpillRun(run.bytes()).ok());
  }
  const std::vector<RefMessage> want =
      ReferenceMerge(std::move(concatenated));

  // One record per chunk refills on every step; the default rarely does.
  for (const uint64_t buf : {uint64_t{12}, uint64_t{36},
                             MessageSpill::kDefaultMergeBufferBytes}) {
    auto res = spill.NewMergeIterator(buf);
    ASSERT_TRUE(res.ok()) << res.status().message();
    auto it = std::move(res).value();
    size_t i = 0;
    for (; it->Valid(); ++i) {
      ASSERT_LT(i, want.size()) << "buf=" << buf;
      ASSERT_EQ(it->dst(), want[i].dst) << "buf=" << buf << " i=" << i;
      ASSERT_TRUE(SamePayload(it->payload(), want[i].payload))
          << "buf=" << buf << " i=" << i;
      ASSERT_TRUE(it->Next().ok());
    }
    EXPECT_EQ(i, want.size()) << "buf=" << buf;
    EXPECT_EQ(it->entries_read(), spill.num_messages());
  }
}

INSTANTIATE_TEST_SUITE_P(
    FanIn, SpillMergeFanIn,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 64, 160, 257),
                       ::testing::Values(false)),
    [](const auto& info) {
      return StringFormat("k%zu_raw", std::get<0>(info.param));
    });

TEST(MergeIterator, RefillErrorInNextInvalidatesTheIterator) {
  MemStorage storage;
  MessageSpill spill(&storage, "t", 4);
  ASSERT_TRUE(spill.SpillRun(Records({{1, 1}, {2, 2}, {3, 3}}).bytes()).ok());
  // Two records per chunk: Open's refill is the first hit. The first Next()
  // consumes the chunk's last record, and its refill is the second hit.
  FailPointScope fp("spill.merge=crash:after=1");
  ASSERT_TRUE(fp.status().ok());
  auto res = spill.NewMergeIterator(16);
  ASSERT_TRUE(res.ok()) << res.status().message();
  auto it = std::move(res).value();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->dst(), 1u);
  EXPECT_FALSE(it->Next().ok());
  EXPECT_FALSE(it->Valid());
}

}  // namespace
}  // namespace hybridgraph
