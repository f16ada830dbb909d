// ReadPipeline: staged readahead must be invisible to the I/O model — every
// test here pairs a pipelined read sequence against the plain synchronous
// sequence and expects identical metering — while the pipeline's own
// bookkeeping (hits, misses, evictions, invalidation, cancellation) is
// exercised directly.
#include "io/prefetch.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "io/message_spill.h"
#include "io/storage.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace hybridgraph {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

class PrefetchTest : public ::testing::Test {
 protected:
  void Put(const std::string& key, const std::string& data) {
    ASSERT_TRUE(
        storage_.Write(key, Slice(Bytes(data)), IoClass::kSeqWrite).ok());
  }

  MemStorage storage_;
  ThreadPool pool_{2};
};

TEST_F(PrefetchTest, DisabledPipelineIsPlainSyncRead) {
  Put("k", "hello");
  ReadPipeline off(&storage_, &pool_, /*depth=*/0, /*budget_bytes=*/1 << 20);
  EXPECT_FALSE(off.enabled());
  off.Schedule("k", {.io_class = IoClass::kSeqRead});  // no-op
  auto r = off.Fetch("k", {.io_class = IoClass::kSeqRead});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, Bytes("hello"));
  const auto stats = off.DrainStats();
  EXPECT_EQ(stats.scheduled, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST_F(PrefetchTest, HitServesStagedBytesAndMetersAtConsumption) {
  Put("k", "0123456789");
  ReadPipeline pipe(&storage_, &pool_, 4, 1 << 20);
  ASSERT_TRUE(pipe.enabled());
  const uint64_t writes = storage_.meter()->WriteBytes();

  const ReadOptions opts{.offset = 2, .length = 5,
                         .io_class = IoClass::kRandRead};
  pipe.Schedule("k", opts);
  // The background read moves bytes but must not meter anything...
  // (poll-free check: metering happens only in Fetch, so the meter may not
  // change until then no matter how long the staged read has been done).
  auto r = pipe.Fetch("k", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, Bytes("23456"));
  EXPECT_EQ(r->blob_size, 10u);
  // ...and Fetch charges exactly what the sync read would have.
  EXPECT_EQ(storage_.meter()->ReadBytes(), 5u);
  EXPECT_EQ(storage_.meter()->WriteBytes(), writes);
  EXPECT_EQ(storage_.meter()->ops(IoClass::kRandRead), 1u);

  const auto stats = pipe.DrainStats();
  EXPECT_EQ(stats.scheduled, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.hit_bytes, 5u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

TEST_F(PrefetchTest, MissFallsBackToSyncRead) {
  Put("k", "abc");
  ReadPipeline pipe(&storage_, &pool_, 4, 1 << 20);
  auto r = pipe.Fetch("k", {.io_class = IoClass::kSeqRead});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, Bytes("abc"));
  const auto stats = pipe.DrainStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST_F(PrefetchTest, ShapeMismatchDropsStagedEntryAndReadsSync) {
  Put("k", "0123456789");
  ReadPipeline pipe(&storage_, &pool_, 4, 1 << 20);
  pipe.Schedule("k", {.offset = 0, .length = 4, .io_class = IoClass::kSeqRead});
  // Same key+offset, different length: staged bytes are useless.
  auto r = pipe.Fetch("k", {.offset = 0, .length = 8,
                            .io_class = IoClass::kSeqRead});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, Bytes("01234567"));
  const auto stats = pipe.DrainStats();
  EXPECT_EQ(stats.scheduled, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(PrefetchTest, DepthBoundEvictsOldest) {
  Put("a", "aaaa");
  Put("b", "bbbb");
  ReadPipeline pipe(&storage_, &pool_, /*depth=*/1, 1 << 20);
  pipe.Schedule("a", {.io_class = IoClass::kSeqRead});
  pipe.Schedule("b", {.io_class = IoClass::kSeqRead});  // evicts "a"
  auto ra = pipe.Fetch("a", {.io_class = IoClass::kSeqRead});
  auto rb = pipe.Fetch("b", {.io_class = IoClass::kSeqRead});
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->data, Bytes("aaaa"));
  EXPECT_EQ(rb->data, Bytes("bbbb"));
  const auto stats = pipe.DrainStats();
  EXPECT_EQ(stats.scheduled, 2u);
  EXPECT_EQ(stats.hits, 1u);    // only "b" survived
  EXPECT_EQ(stats.misses, 1u);  // "a" was evicted
}

TEST_F(PrefetchTest, ByteBudgetEvictsOldestAndRejectsOversized) {
  Put("a", std::string(600, 'a'));
  Put("b", std::string(600, 'b'));
  Put("huge", std::string(5000, 'h'));
  ReadPipeline pipe(&storage_, &pool_, /*depth=*/8, /*budget_bytes=*/1000);
  pipe.Schedule("huge", {.io_class = IoClass::kSeqRead});  // alone over budget
  pipe.Schedule("a", {.io_class = IoClass::kSeqRead});
  pipe.Schedule("b", {.io_class = IoClass::kSeqRead});  // 1200 > 1000: evict a
  auto ra = pipe.Fetch("a", {.io_class = IoClass::kSeqRead});
  auto rb = pipe.Fetch("b", {.io_class = IoClass::kSeqRead});
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  const auto stats = pipe.DrainStats();
  EXPECT_EQ(stats.scheduled, 2u);  // "huge" never staged
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(PrefetchTest, DuplicateScheduleIsIgnored) {
  Put("k", "abcd");
  ReadPipeline pipe(&storage_, &pool_, 4, 1 << 20);
  pipe.Schedule("k", {.io_class = IoClass::kSeqRead});
  pipe.Schedule("k", {.io_class = IoClass::kSeqRead});
  const auto stats = pipe.DrainStats();
  EXPECT_EQ(stats.scheduled, 1u);
}

TEST_F(PrefetchTest, WriteInvalidatesStagedKey) {
  Put("k", "old-bytes");
  ReadPipeline pipe(&storage_, &pool_, 4, 1 << 20);
  pipe.Schedule("k", {.io_class = IoClass::kSeqRead});
  Put("k", "new-bytes!");  // mutation observer must drop the staged entry
  auto r = pipe.Fetch("k", {.io_class = IoClass::kSeqRead});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, Bytes("new-bytes!"));  // never pre-mutation bytes
  const auto stats = pipe.DrainStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(PrefetchTest, DeleteInvalidatesStagedKey) {
  Put("k", "doomed");
  ReadPipeline pipe(&storage_, &pool_, 4, 1 << 20);
  pipe.Schedule("k", {.io_class = IoClass::kSeqRead});
  ASSERT_TRUE(storage_.Delete("k").ok());
  auto r = pipe.Fetch("k", {.io_class = IoClass::kSeqRead});
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(PrefetchTest, CancelAllDropsEveryStagedEntry) {
  Put("a", "aa");
  Put("b", "bb");
  ReadPipeline pipe(&storage_, &pool_, 4, 1 << 20);
  pipe.Schedule("a", {.io_class = IoClass::kSeqRead});
  pipe.Schedule("b", {.io_class = IoClass::kSeqRead});
  pipe.CancelAll();
  ASSERT_TRUE(pipe.Fetch("a", {.io_class = IoClass::kSeqRead}).ok());
  ASSERT_TRUE(pipe.Fetch("b", {.io_class = IoClass::kSeqRead}).ok());
  const auto stats = pipe.DrainStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST_F(PrefetchTest, MeteringIdenticalToSyncSequence) {
  // The determinism contract: an interleaved schedule/fetch sequence leaves
  // the meter AND the page cache in exactly the state the synchronous
  // sequence produces — including LRU evolution with a bounded cache.
  auto run = [](bool prefetch) {
    MemStorage storage;
    storage.EnablePageCache(12);  // holds one small blob: eviction matters
    ThreadPool pool(2);
    ReadPipeline pipe(&storage, &pool, prefetch ? 4 : 0, 1 << 20);
    EXPECT_TRUE(
        storage.Write("x", Slice(Bytes("xxxxxxxxxx")), IoClass::kSeqWrite)
            .ok());
    EXPECT_TRUE(
        storage.Write("y", Slice(Bytes("yyyyyyyy")), IoClass::kSeqWrite).ok());
    const std::string keys[] = {"x", "y", "x", "x", "y"};
    std::vector<bool> cache_hits;
    for (const auto& k : keys) {
      const ReadOptions opts{.io_class = IoClass::kSeqRead};
      if (prefetch) pipe.Schedule(k, opts);
      auto r = pipe.Fetch(k, opts);
      EXPECT_TRUE(r.ok());
      cache_hits.push_back(r->cache_hit);
    }
    struct Snapshot {
      uint64_t seq_bytes, seq_cached, rand_bytes, ops;
      std::vector<bool> cache_hits;
    };
    return Snapshot{storage.meter()->bytes(IoClass::kSeqRead),
                    storage.meter()->cached_bytes(IoClass::kSeqRead),
                    storage.meter()->bytes(IoClass::kRandRead),
                    storage.meter()->ops(IoClass::kSeqRead), cache_hits};
  };
  const auto sync = run(false);
  const auto staged = run(true);
  EXPECT_EQ(sync.seq_bytes, staged.seq_bytes);
  EXPECT_EQ(sync.seq_cached, staged.seq_cached);
  EXPECT_EQ(sync.rand_bytes, staged.rand_bytes);
  EXPECT_EQ(sync.ops, staged.ops);
  EXPECT_EQ(sync.cache_hits, staged.cache_hits);
}

TEST_F(PrefetchTest, SpanSinkSeesPrefetchSpanWithContext) {
  Put("k", "span-bytes");
  ReadPipeline pipe(&storage_, &pool_, 4, 1 << 20);
  struct Seen {
    std::string name;
    int superstep = -1, mode = -1;
    uint64_t start = 0, end = 0;
    int count = 0;
  } seen;
  pipe.SetSpanSink([&seen](const char* name, int superstep, int mode,
                           uint64_t start_us, uint64_t end_us) {
    seen = {name, superstep, mode, start_us, end_us, seen.count + 1};
  });
  pipe.SetContext(/*superstep=*/3, /*mode=*/2);
  pipe.Schedule("k", {.io_class = IoClass::kSeqRead});
  ASSERT_TRUE(pipe.Fetch("k", {.io_class = IoClass::kSeqRead}).ok());
  EXPECT_EQ(seen.count, 1);
  EXPECT_EQ(seen.name, "io.prefetch");
  EXPECT_EQ(seen.superstep, 3);
  EXPECT_EQ(seen.mode, 2);
  EXPECT_GE(seen.end, seen.start);
}

// ------------------------------------------------------------ fail points

TEST_F(PrefetchTest, InjectedErrorFallsBackToSyncRead) {
  Put("k", "resilient");
  ReadPipeline pipe(&storage_, &pool_, 4, 1 << 20);
  {
    FailPointScope fp("io.prefetch=error:p=1");
    ASSERT_TRUE(fp.status().ok());
    pipe.Schedule("k", {.io_class = IoClass::kSeqRead});
    auto r = pipe.Fetch("k", {.io_class = IoClass::kSeqRead});
    ASSERT_TRUE(r.ok());  // staged read failed; sync fallback served it
    EXPECT_EQ(r->data, Bytes("resilient"));
  }
  const auto stats = pipe.DrainStats();
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.hits, 0u);
  // The fallback still metered the read exactly once.
  EXPECT_EQ(storage_.meter()->ReadBytes(), 9u);
}

TEST_F(PrefetchTest, InjectedDelayStillHits) {
  Put("k", "slow-disk");
  ReadPipeline pipe(&storage_, &pool_, 4, 1 << 20);
  {
    FailPointScope fp("io.prefetch=delay:us=2000,p=1");
    ASSERT_TRUE(fp.status().ok());
    pipe.Schedule("k", {.io_class = IoClass::kSeqRead});
    auto r = pipe.Fetch("k", {.io_class = IoClass::kSeqRead});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->data, Bytes("slow-disk"));
  }
  const auto stats = pipe.DrainStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

TEST_F(PrefetchTest, InjectedCrashPropagatesFromFetch) {
  Put("k", "torn");
  ReadPipeline pipe(&storage_, &pool_, 4, 1 << 20);
  FailPointScope fp("io.prefetch=crash:p=1");
  ASSERT_TRUE(fp.status().ok());
  pipe.Schedule("k", {.io_class = IoClass::kSeqRead});
  auto r = pipe.Fetch("k", {.io_class = IoClass::kSeqRead});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsInjectedCrash(r.status()));  // crashes surface, no fallback
}

// ------------------------------------------------- spill-merge integration

TEST_F(PrefetchTest, SpillClearCancelsStagedRunChunks) {
  MessageSpill spill(&storage_, "sp", /*payload_size=*/4);
  RecordSlab run(4);
  for (uint32_t i = 0; i < 32; ++i) {
    std::memset(run.Append(i), static_cast<int>(i), 4);
  }
  ASSERT_TRUE(spill.SpillRun(run.bytes()).ok());
  const std::vector<std::string> run_keys = storage_.ListKeys("sp/");
  ASSERT_FALSE(run_keys.empty());

  ReadPipeline pipe(&storage_, &pool_, 8, 1 << 20);
  spill.WarmupMerge(/*buffer_bytes_per_run=*/64, &pipe);
  EXPECT_EQ(pipe.DrainStats().scheduled, run_keys.size());

  ASSERT_TRUE(spill.Clear().ok());  // deletes run blobs -> staged drops
  for (const auto& key : run_keys) {
    auto r = pipe.Fetch(key, {.offset = 8, .length = 64, .allow_short = true,
                              .io_class = IoClass::kSeqRead});
    // Stale pre-Clear bytes must never come back.
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound) << key;
  }
  const auto stats = pipe.DrainStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, run_keys.size());
}

TEST_F(PrefetchTest, WarmupMergeChunksHitOnFirstRefill) {
  MessageSpill spill(&storage_, "sp", /*payload_size=*/4);
  for (int r = 0; r < 3; ++r) {
    RecordSlab run(4);
    for (uint32_t i = 0; i < 64; ++i) {
      std::memset(run.Append(i * 3 + uint32_t(r)), r, 4);
    }
    ASSERT_TRUE(spill.SpillRun(run.bytes()).ok());
  }
  ReadPipeline pipe(&storage_, &pool_, 8, 1 << 20);
  constexpr uint64_t kBuf = 64;
  spill.WarmupMerge(kBuf, &pipe);
  EXPECT_EQ(pipe.DrainStats().scheduled, 3u);

  auto it = spill.NewMergeIterator(kBuf, &pipe).ValueOrDie();
  uint64_t n = 0;
  while (it->Valid()) {
    ++n;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(n, 3u * 64u);
  // The opening Refill of every run was served from the warmup chunks, and
  // the merge's own double buffering covered every later refill: a shape
  // mismatch anywhere would show up as a miss.
  const auto stats = pipe.DrainStats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_GE(stats.hits, 3u);
}

}  // namespace
}  // namespace hybridgraph
