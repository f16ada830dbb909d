// Backend-parameterized storage tests: MemStorage and FileStorage must
// behave identically through the StorageService interface — including the
// unified ReadOptions/ReadResult read surface and async staged reads.
#include "io/storage.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "util/thread_pool.h"

namespace hybridgraph {
namespace {

enum class Backend { kMem, kFile };

class StorageTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::kMem) {
      storage_ = std::make_unique<MemStorage>();
    } else {
      dir_ = ::testing::TempDir() + "/hg_storage_test_" +
             std::to_string(reinterpret_cast<uintptr_t>(this));
      auto r = FileStorage::Open(dir_);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      storage_ = std::move(r).ValueOrDie();
    }
  }

  void TearDown() override {
    storage_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  static Slice S(const std::string& s) { return Slice(s); }

  /// Whole-blob read as a string; aborts the test on error.
  std::string ReadAll(const std::string& key,
                      IoClass cls = IoClass::kSeqRead) {
    auto r = storage_->Read(key, {.io_class = cls});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return {};
    return std::string(r->data.begin(), r->data.end());
  }

  std::unique_ptr<StorageService> storage_;
  std::string dir_;
};

TEST_P(StorageTest, WriteReadRoundTrip) {
  ASSERT_TRUE(storage_->Write("a/b", S("hello"), IoClass::kSeqWrite).ok());
  EXPECT_EQ(ReadAll("a/b"), "hello");
}

TEST_P(StorageTest, ReadReportsBlobSize) {
  ASSERT_TRUE(storage_->Write("k", S("0123456789"), IoClass::kSeqWrite).ok());
  auto r = storage_->Read("k", {.offset = 2, .length = 3});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(r->data.begin(), r->data.end()), "234");
  EXPECT_EQ(r->blob_size, 10u);
}

TEST_P(StorageTest, WriteOverwrites) {
  ASSERT_TRUE(storage_->Write("k", S("first"), IoClass::kSeqWrite).ok());
  ASSERT_TRUE(storage_->Write("k", S("2nd"), IoClass::kSeqWrite).ok());
  EXPECT_EQ(ReadAll("k"), "2nd");
  EXPECT_EQ(storage_->SizeOf("k"), 3u);
}

TEST_P(StorageTest, AppendGrows) {
  ASSERT_TRUE(storage_->Append("k", S("ab"), IoClass::kSeqWrite).ok());
  ASSERT_TRUE(storage_->Append("k", S("cd"), IoClass::kSeqWrite).ok());
  EXPECT_EQ(ReadAll("k"), "abcd");
}

TEST_P(StorageTest, ReadMissingIsNotFound) {
  EXPECT_EQ(storage_->Read("ghost").status().code(), StatusCode::kNotFound);
}

TEST_P(StorageTest, RangedRead) {
  ASSERT_TRUE(storage_->Write("k", S("0123456789"), IoClass::kSeqWrite).ok());
  auto r = storage_->Read(
      "k", {.offset = 3, .length = 4, .io_class = IoClass::kRandRead});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(r->data.begin(), r->data.end()), "3456");
  EXPECT_EQ(
      storage_->Read("k", {.offset = 8, .length = 5}).status().code(),
      StatusCode::kOutOfRange);
}

TEST_P(StorageTest, AllowShortClampsInsteadOfOutOfRange) {
  ASSERT_TRUE(storage_->Write("k", S("0123456789"), IoClass::kSeqWrite).ok());
  auto r = storage_->Read("k", {.offset = 8, .length = 5, .allow_short = true});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(r->data.begin(), r->data.end()), "89");
  // Offset at/past the end yields an empty (not failed) read.
  auto past = storage_->Read("k", {.offset = 12, .length = 5,
                                   .allow_short = true});
  ASSERT_TRUE(past.ok());
  EXPECT_TRUE(past->data.empty());
}

TEST_P(StorageTest, UnmeteredReadLeavesMeterUntouched) {
  ASSERT_TRUE(storage_->Write("k", S("12345"), IoClass::kSeqWrite).ok());
  const uint64_t before = storage_->meter()->bytes(IoClass::kSeqRead);
  auto r = storage_->Read("k", {.io_class = IoClass::kSeqRead,
                                .metering = false});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(storage_->meter()->bytes(IoClass::kSeqRead), before);
}

TEST_P(StorageTest, WriteRange) {
  ASSERT_TRUE(storage_->Write("k", S("0123456789"), IoClass::kSeqWrite).ok());
  ASSERT_TRUE(storage_->WriteRange("k", 2, S("XY"), IoClass::kRandWrite).ok());
  EXPECT_EQ(ReadAll("k"), "01XY456789");
  EXPECT_EQ(storage_->WriteRange("k", 9, S("ZZ"), IoClass::kRandWrite).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(storage_->WriteRange("nope", 0, S("a"), IoClass::kRandWrite).code(),
            StatusCode::kNotFound);
}

TEST_P(StorageTest, ExistsDeleteSize) {
  EXPECT_FALSE(storage_->Exists("k"));
  EXPECT_EQ(storage_->SizeOf("k"), 0u);
  ASSERT_TRUE(storage_->Write("k", S("abc"), IoClass::kSeqWrite).ok());
  EXPECT_TRUE(storage_->Exists("k"));
  EXPECT_EQ(storage_->SizeOf("k"), 3u);
  ASSERT_TRUE(storage_->Delete("k").ok());
  EXPECT_FALSE(storage_->Exists("k"));
}

TEST_P(StorageTest, ListKeysByPrefix) {
  ASSERT_TRUE(storage_->Write("x/1", S("a"), IoClass::kSeqWrite).ok());
  ASSERT_TRUE(storage_->Write("x/2", S("b"), IoClass::kSeqWrite).ok());
  ASSERT_TRUE(storage_->Write("y/1", S("c"), IoClass::kSeqWrite).ok());
  auto keys = storage_->ListKeys("x/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "x/1");
  EXPECT_EQ(keys[1], "x/2");
}

TEST_P(StorageTest, MeterCountsBytes) {
  ASSERT_TRUE(storage_->Write("k", S("12345"), IoClass::kRandWrite).ok());
  EXPECT_EQ(ReadAll("k"), "12345");
  EXPECT_EQ(storage_->meter()->bytes(IoClass::kRandWrite), 5u);
  EXPECT_EQ(storage_->meter()->bytes(IoClass::kSeqRead), 5u);
}

TEST_P(StorageTest, PageCacheMakesRereadsCached) {
  storage_->EnablePageCache(1024 * 1024);
  ASSERT_TRUE(storage_->Write("k", S("abcdef"), IoClass::kSeqWrite).ok());
  // The write inserted it into the cache; the read is a hit.
  auto r = storage_->Read("k", {.io_class = IoClass::kSeqRead});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cache_hit);
  EXPECT_EQ(storage_->meter()->cached_bytes(IoClass::kSeqRead), 6u);
  EXPECT_EQ(storage_->meter()->bytes(IoClass::kSeqRead), 0u);
}

TEST_P(StorageTest, PageCacheColdReadThenWarm) {
  ASSERT_TRUE(storage_->Write("k", S("abcdef"), IoClass::kSeqWrite).ok());
  storage_->EnablePageCache(1024 * 1024);  // enabled after the write
  auto cold = storage_->Read("k", {.io_class = IoClass::kSeqRead});
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cache_hit);
  auto warm = storage_->Read("k", {.io_class = IoClass::kSeqRead});
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(storage_->meter()->bytes(IoClass::kSeqRead), 6u);
  EXPECT_EQ(storage_->meter()->cached_bytes(IoClass::kSeqRead), 6u);
}

TEST_P(StorageTest, PageCacheEvictsLru) {
  storage_->EnablePageCache(10);  // tiny: one 6-byte blob at a time
  ASSERT_TRUE(storage_->Write("a", S("aaaaaa"), IoClass::kSeqWrite).ok());
  ASSERT_TRUE(storage_->Write("b", S("bbbbbb"), IoClass::kSeqWrite).ok());
  // "a" was evicted by "b": reading it is a device read again.
  EXPECT_EQ(ReadAll("a"), "aaaaaa");
  EXPECT_EQ(storage_->meter()->bytes(IoClass::kSeqRead), 6u);
}

TEST_P(StorageTest, DeleteDropsFromCache) {
  storage_->EnablePageCache(1024);
  ASSERT_TRUE(storage_->Write("k", S("xxxx"), IoClass::kSeqWrite).ok());
  ASSERT_TRUE(storage_->Delete("k").ok());
  ASSERT_TRUE(storage_->Write("k", S("yyyy"), IoClass::kSeqWrite).ok());
  EXPECT_EQ(ReadAll("k"), "yyyy");
}

TEST_P(StorageTest, EmptyBlob) {
  ASSERT_TRUE(storage_->Write("k", Slice(), IoClass::kSeqWrite).ok());
  auto r = storage_->Read("k");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->data.empty());
}

TEST_P(StorageTest, MutationObserverFiresOnWriteAndDelete) {
  std::vector<std::string> mutated;
  storage_->SetMutationObserver(
      [&](const std::string& key) { mutated.push_back(key); });
  ASSERT_TRUE(storage_->Write("k", S("abc"), IoClass::kSeqWrite).ok());
  ASSERT_TRUE(storage_->WriteRange("k", 1, S("X"), IoClass::kRandWrite).ok());
  ASSERT_TRUE(storage_->Append("k", S("d"), IoClass::kSeqWrite).ok());
  ASSERT_TRUE(storage_->Delete("k").ok());
  ASSERT_EQ(mutated.size(), 4u);
  for (const auto& k : mutated) EXPECT_EQ(k, "k");
  storage_->SetMutationObserver(nullptr);
  ASSERT_TRUE(storage_->Write("k2", S("z"), IoClass::kSeqWrite).ok());
  EXPECT_EQ(mutated.size(), 4u);
}

TEST_P(StorageTest, AsyncReadCompletesUnmetered) {
  ASSERT_TRUE(storage_->Write("k", S("0123456789"), IoClass::kSeqWrite).ok());
  ThreadPool pool(2);
  auto handle = storage_->ReadAsync(
      "k", {.offset = 2, .length = 4, .io_class = IoClass::kSeqRead}, &pool);
  auto r = handle->Take();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(std::string(r->data.begin(), r->data.end()), "2345");
  EXPECT_TRUE(handle->Poll());
  EXPECT_GE(handle->end_us(), handle->start_us());
  // Background reads never meter; FinishStagedRead is the consumption-point
  // metering entry.
  EXPECT_EQ(storage_->meter()->bytes(IoClass::kSeqRead), 0u);
  storage_->FinishStagedRead("k", r->blob_size, r->data.size(),
                             IoClass::kSeqRead);
  EXPECT_EQ(storage_->meter()->bytes(IoClass::kSeqRead), 4u);
}

TEST_P(StorageTest, AsyncReadCancelBeforeRun) {
  ASSERT_TRUE(storage_->Write("k", S("abc"), IoClass::kSeqWrite).ok());
  ThreadPool pool(1);
  auto h1 = storage_->ReadAsync("k", {}, &pool);
  h1->Cancel();
  auto r1 = h1->Take();
  // Either the task saw the cancel (FailedPrecondition) or it had already
  // completed; both are valid outcomes of a racing Cancel.
  if (!r1.ok()) {
    EXPECT_EQ(r1.status().code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_TRUE(h1->cancelled());
}

TEST_P(StorageTest, AsyncReadMissingKey) {
  ThreadPool pool(1);
  auto handle = storage_->ReadAsync("ghost", {}, &pool);
  auto r = handle->Take();
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

INSTANTIATE_TEST_SUITE_P(Backends, StorageTest,
                         ::testing::Values(Backend::kMem, Backend::kFile),
                         [](const auto& info) {
                           return info.param == Backend::kMem ? "Mem" : "File";
                         });

// ------------------------------------------------------------ ChargeReads

// Two stores in identical states: one is charged n back-to-back metered
// reads of `key`, the other one ChargeReads(n). Meters must match, and a
// probe of every blob afterwards (which reveals LRU residency and order)
// must see identical hits on both.
class StorageChargeReads : public ::testing::Test {
 protected:
  static constexpr uint64_t kSmall = 100;
  static constexpr uint64_t kBig = 1000;
  static constexpr uint64_t kRecord = 16;

  static uint64_t SizeFor(const std::string& key) {
    return key == "big" ? kBig : kSmall;
  }

  void Prepare(MemStorage* s, uint64_t capacity,
               const std::vector<std::string>& warm) {
    // Writes refresh the cache, so write everything with the cache off.
    for (const char* key : {"a", "b", "c", "big"}) {
      const std::string bytes(SizeFor(key), 'x');
      ASSERT_TRUE(s->Write(key, Slice(bytes), IoClass::kSeqWrite).ok());
    }
    s->EnablePageCache(capacity);
    for (const auto& key : warm) {
      s->FinishStagedRead(key, SizeFor(key), kRecord, IoClass::kRandRead);
    }
  }

  static void ExpectSameMeter(const DiskMeter& a, const DiskMeter& b) {
    for (int c = 0; c < kNumIoClasses; ++c) {
      const IoClass cls = static_cast<IoClass>(c);
      EXPECT_EQ(a.bytes(cls), b.bytes(cls)) << IoClassName(cls);
      EXPECT_EQ(a.cached_bytes(cls), b.cached_bytes(cls)) << IoClassName(cls);
      EXPECT_EQ(a.ops(cls), b.ops(cls)) << IoClassName(cls);
    }
  }

  /// Returns the probe hit flags (a, b, c, big) after the charge.
  std::vector<bool> Check(uint64_t capacity,
                          const std::vector<std::string>& warm,
                          const std::string& key, uint64_t n) {
    MemStorage reads, charged;
    Prepare(&reads, capacity, warm);
    Prepare(&charged, capacity, warm);
    for (uint64_t i = 0; i < n; ++i) {
      reads.FinishStagedRead(key, SizeFor(key), kRecord, IoClass::kRandRead);
    }
    charged.ChargeReads(key, SizeFor(key), kRecord, IoClass::kRandRead, n);
    ExpectSameMeter(*reads.meter(), *charged.meter());
    EXPECT_EQ(charged.meter()->ops(IoClass::kRandRead), warm.size() + n);
    std::vector<bool> hits;
    for (const char* probe : {"a", "b", "c", "big"}) {
      const bool hit = reads.FinishStagedRead(probe, SizeFor(probe), kRecord,
                                              IoClass::kRandRead);
      EXPECT_EQ(hit, charged.FinishStagedRead(probe, SizeFor(probe), kRecord,
                                              IoClass::kRandRead))
          << probe;
      hits.push_back(hit);
    }
    ExpectSameMeter(*reads.meter(), *charged.meter());
    return hits;
  }
};

TEST_F(StorageChargeReads, CacheOffChargesEveryReadAtDeviceCost) {
  Check(0, {}, "a", 5);
  MemStorage s;
  Prepare(&s, 0, {});
  s.ChargeReads("a", kSmall, kRecord, IoClass::kRandRead, 5);
  EXPECT_EQ(s.meter()->bytes(IoClass::kRandRead), 5 * kRecord);
  EXPECT_EQ(s.meter()->cached_bytes(IoClass::kRandRead), 0u);
}

TEST_F(StorageChargeReads, BlobLargerThanCapacityNeverCaches) {
  const auto hits = Check(250, {"a"}, "big", 7);
  EXPECT_FALSE(hits[3]);
}

TEST_F(StorageChargeReads, ColdKeyMissesOnceThenHits) {
  Check(250, {}, "a", 6);
  MemStorage s;
  Prepare(&s, 250, {});
  s.ChargeReads("a", kSmall, kRecord, IoClass::kRandRead, 6);
  EXPECT_EQ(s.meter()->bytes(IoClass::kRandRead), kRecord);
  EXPECT_EQ(s.meter()->cached_bytes(IoClass::kRandRead), 5 * kRecord);
}

TEST_F(StorageChargeReads, WarmKeyHitsEveryRead) {
  const auto hits = Check(250, {"a", "b"}, "a", 4);
  EXPECT_TRUE(hits[0]);
}

TEST_F(StorageChargeReads, TouchEvictsTheLeastRecentlyUsed) {
  // a and b fill the cache; charging c evicts a (the LRU), not b.
  const auto hits = Check(250, {"a", "b"}, "c", 3);
  EXPECT_FALSE(hits[0]);
}

TEST_F(StorageChargeReads, ZeroAndOneReads) {
  Check(250, {"a"}, "b", 0);
  Check(250, {"a"}, "b", 1);
  Check(0, {}, "b", 1);
}

}  // namespace
}  // namespace hybridgraph
