#include "net/message_codec.h"

#include <gtest/gtest.h>

#include <cstring>

#include "util/rng.h"

namespace hybridgraph {
namespace {

std::vector<uint8_t> Payload8(uint64_t v) {
  std::vector<uint8_t> p(8);
  std::memcpy(p.data(), &v, 8);
  return p;
}

void Put8(RecordSlab* slab, uint32_t dst, uint64_t v) {
  std::memcpy(slab->Append(dst), &v, 8);
}

uint64_t Value8(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

/// Decodes a flat batch of 8-byte payloads back into a slab through ForEach.
Status DecodeFlat(Slice data, RecordSlab* out) {
  return FlatBatchCodec::ForEach(
      data, 8, [&](uint32_t dst, const uint8_t* payload) {
        out->Append(dst, payload);
        return Status::OK();
      });
}

TEST(FlatBatch, RoundTrip) {
  RecordSlab msgs(8);
  Put8(&msgs, 7, 70);
  Put8(&msgs, 3, 30);
  Buffer buf;
  FlatBatchCodec::Encode(msgs, &buf);

  RecordSlab out(8);
  ASSERT_TRUE(DecodeFlat(buf.AsSlice(), &out).ok());
  ASSERT_EQ(out.count(), 2u);
  EXPECT_EQ(out.dst(0), 7u);
  EXPECT_EQ(Value8(out.payload(0)), 70u);
  EXPECT_EQ(out.dst(1), 3u);
  EXPECT_EQ(Value8(out.payload(1)), 30u);
}

TEST(FlatBatch, WireLayoutIsCountThenRecords) {
  // The wire body is the slab verbatim: varint count, then per record a
  // little-endian fixed32 dst and the raw payload.
  RecordSlab msgs(8);
  Put8(&msgs, 0x01020304u, 0x1112131415161718ULL);
  Buffer buf;
  FlatBatchCodec::Encode(msgs, &buf);
  const std::vector<uint8_t> want = {1,    0x04, 0x03, 0x02, 0x01, 0x18, 0x17,
                                     0x16, 0x15, 0x14, 0x13, 0x12, 0x11};
  EXPECT_EQ(buf.bytes(), want);
  EXPECT_EQ(Slice(buf.data() + 1, buf.size() - 1), msgs.bytes());
}

TEST(FlatBatch, HeadThenTailReadInsideALargerStream) {
  // Encode(head, out, tail) writes one batch; Read consumes exactly that
  // batch from a stream that continues after it (the checkpoint layout).
  RecordSlab head(8), tail(8);
  Put8(&head, 5, 50);
  Put8(&tail, 6, 60);
  Put8(&tail, 9, 90);
  Buffer buf;
  FlatBatchCodec::Encode(head, &buf, tail);
  buf.PushBack(0xAB);
  Decoder dec(buf.AsSlice());
  Slice records;
  ASSERT_TRUE(FlatBatchCodec::Read(&dec, 8, &records).ok());
  ASSERT_EQ(records.size(), 3u * 12);
  EXPECT_EQ(Slice(records.data(), 12), head.bytes());
  EXPECT_EQ(Slice(records.data() + 12, 24), tail.bytes());
  uint8_t next = 0;
  ASSERT_TRUE(dec.GetU8(&next).ok());
  EXPECT_EQ(next, 0xAB);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(FlatBatch, ReadRejectsACountTheInputCannotHold) {
  Buffer buf;
  Encoder enc(&buf);
  enc.PutVarint64(UINT64_MAX / 2);  // count × 12 would overflow size_t
  enc.PutFixed32(1);
  Decoder dec(buf.AsSlice());
  Slice records;
  EXPECT_EQ(FlatBatchCodec::Read(&dec, 8, &records).code(),
            StatusCode::kCorruption);
}

TEST(FlatBatch, Empty) {
  Buffer buf;
  FlatBatchCodec::Encode(RecordSlab(8), &buf);
  RecordSlab out(8);
  ASSERT_TRUE(DecodeFlat(buf.AsSlice(), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(FlatBatch, TruncationFails) {
  RecordSlab msgs(8);
  Put8(&msgs, 1, 1);
  Buffer buf;
  FlatBatchCodec::Encode(msgs, &buf);
  RecordSlab out(8);
  EXPECT_FALSE(DecodeFlat(Slice(buf.data(), buf.size() - 2), &out).ok());
}

TEST(FlatBatch, BodyMustBeExactlyCountRecords) {
  RecordSlab msgs(8);
  Put8(&msgs, 1, 1);
  Put8(&msgs, 2, 2);
  Buffer buf;
  FlatBatchCodec::Encode(msgs, &buf);
  // One trailing byte, one record short, and one byte short are all
  // Corruption, and ForEach visits nothing.
  Buffer trailing = buf;
  trailing.PushBack(0);
  for (const Slice bad :
       {trailing.AsSlice(), Slice(buf.data(), buf.size() - 12),
        Slice(buf.data(), buf.size() - 1)}) {
    int visited = 0;
    const Status st = FlatBatchCodec::ForEach(
        bad, 8, [&](uint32_t, const uint8_t*) {
          ++visited;
          return Status::OK();
        });
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << bad.size() << " bytes";
    EXPECT_EQ(visited, 0);
  }
}

// Test-side view of a grouped batch: the writer encodes it, ForEach decodes
// it back.
struct Group {
  uint32_t dst;
  std::vector<std::vector<uint8_t>> payloads;
};

Buffer EncodeGroups(const std::vector<Group>& groups) {
  GroupedBatchWriter writer;
  writer.Reset(8);
  for (const auto& g : groups) {
    const uint32_t gi = writer.AddGroup(g.dst);
    for (const auto& p : g.payloads) {
      std::memcpy(writer.Append(gi), p.data(), 8);
    }
  }
  Buffer buf;
  writer.EncodeTo(&buf);
  return buf;
}

Status DecodeGroups(Slice data, std::vector<Group>* out) {
  return GroupedBatchCodec::ForEach(
      data, 8, [&](uint32_t dst, const uint8_t* payloads, uint64_t n) {
        Group g{dst, {}};
        for (uint64_t k = 0; k < n; ++k) {
          g.payloads.emplace_back(payloads + k * 8, payloads + (k + 1) * 8);
        }
        out->push_back(std::move(g));
        return Status::OK();
      });
}

TEST(GroupedBatch, RoundTrip) {
  std::vector<Group> groups;
  groups.push_back({5, {Payload8(1), Payload8(2), Payload8(3)}});
  groups.push_back({9, {Payload8(4)}});
  const Buffer buf = EncodeGroups(groups);

  std::vector<Group> out;
  ASSERT_TRUE(DecodeGroups(buf.AsSlice(), &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].dst, 5u);
  ASSERT_EQ(out[0].payloads.size(), 3u);
  EXPECT_EQ(out[0].payloads[1], Payload8(2));
  EXPECT_EQ(out[1].dst, 9u);
  ASSERT_EQ(out[1].payloads.size(), 1u);
}

TEST(GroupedBatch, EncodedSizeMatchesActual) {
  // The wire size the cost model charges: count varint, then per group a
  // fixed32 id, a count varint and the payloads.
  std::vector<Group> groups;
  groups.push_back({1, {Payload8(1), Payload8(2)}});
  groups.push_back({200, {}});
  groups.push_back({70000, {Payload8(9)}});
  const Buffer buf = EncodeGroups(groups);
  EXPECT_EQ(buf.size(), 1u + (4 + 1 + 16) + (4 + 1) + (4 + 1 + 8));
}

TEST(GroupedBatch, WriterGroupsInterleavedAppendsStably) {
  // Payloads arrive interleaved across groups (scan order); the encoding
  // lists groups in creation order and each group's payloads in arrival
  // order — the same bytes as appending group by group.
  GroupedBatchWriter writer;
  writer.Reset(8);
  const uint32_t a = writer.AddGroup(7);
  std::memcpy(writer.Append(a), Payload8(1).data(), 8);
  const uint32_t b = writer.AddGroup(3);
  std::memcpy(writer.Append(b), Payload8(2).data(), 8);
  std::memcpy(writer.Append(a), Payload8(3).data(), 8);
  std::memcpy(writer.Append(b), Payload8(4).data(), 8);
  std::memcpy(writer.Append(a), Payload8(5).data(), 8);
  Buffer got;
  writer.EncodeTo(&got);
  const Buffer want = EncodeGroups(
      {{7, {Payload8(1), Payload8(3), Payload8(5)}},
       {3, {Payload8(2), Payload8(4)}}});
  EXPECT_TRUE(got.AsSlice() == want.AsSlice());

  // Reset reuses the writer; EncodeTo appends after existing bytes.
  writer.Reset(8);
  std::memcpy(writer.Append(writer.AddGroup(11)), Payload8(6).data(), 8);
  Buffer appended(std::vector<uint8_t>{0xAB});
  writer.EncodeTo(&appended);
  const Buffer single = EncodeGroups({{11, {Payload8(6)}}});
  ASSERT_EQ(appended.size(), 1 + single.size());
  EXPECT_EQ(appended.data()[0], 0xAB);
  EXPECT_TRUE(Slice(appended.data() + 1, single.size()) == single.AsSlice());
}

TEST(GroupedBatch, WriterSlotOfIsTheGroupsSinglePayload) {
  // Combining: one payload per group, folded in place through slot_of.
  GroupedBatchWriter writer;
  writer.Reset(8);
  const uint32_t a = writer.AddGroup(7);
  std::memcpy(writer.Append(a), Payload8(1).data(), 8);
  const uint32_t b = writer.AddGroup(3);
  std::memcpy(writer.Append(b), Payload8(2).data(), 8);
  std::memcpy(writer.slot_of(a), Payload8(5).data(), 8);
  std::memcpy(writer.slot_of(b), Payload8(6).data(), 8);
  Buffer got;
  writer.EncodeTo(&got);
  const Buffer want = EncodeGroups({{7, {Payload8(5)}}, {3, {Payload8(6)}}});
  EXPECT_TRUE(got.AsSlice() == want.AsSlice());
}

TEST(GroupedBatch, ForEachIsZeroCopyAndStopsOnError) {
  const Buffer buf = EncodeGroups(
      {{1, {Payload8(10), Payload8(11)}}, {2, {Payload8(20)}}});
  int visited = 0;
  const Status st = GroupedBatchCodec::ForEach(
      buf.AsSlice(), 8, [&](uint32_t dst, const uint8_t* payloads, uint64_t) {
        ++visited;
        EXPECT_GE(payloads, buf.data());
        EXPECT_LT(payloads, buf.data() + buf.size());
        return dst == 1 ? Status::InvalidArgument("stop") : Status::OK();
      });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(visited, 1);
}

TEST(GroupedBatch, ConcatenationSavesBytes) {
  // N messages to the same destination: grouped encoding shares the id.
  constexpr int kN = 100;
  Group g{42, {}};
  RecordSlab flat(8);
  for (int i = 0; i < kN; ++i) {
    g.payloads.push_back(Payload8(i));
    Put8(&flat, 42, i);
  }
  const Buffer gbuf = EncodeGroups({g});
  Buffer fbuf;
  FlatBatchCodec::Encode(flat, &fbuf);
  // Flat spends 4 id bytes per message; grouped spends ~4 total.
  EXPECT_LT(gbuf.size() + (kN - 1) * 4 - 8, fbuf.size());
  EXPECT_GT(fbuf.size() - gbuf.size(), (kN - 2) * 4u);
}

class GroupedFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupedFuzzTest, RandomGroupsRoundTrip) {
  Rng rng(GetParam());
  std::vector<Group> groups;
  const int n = 1 + rng.NextBounded(50);
  for (int i = 0; i < n; ++i) {
    Group g{static_cast<uint32_t>(rng.Next()), {}};
    const int k = rng.NextBounded(8);
    for (int j = 0; j < k; ++j) g.payloads.push_back(Payload8(rng.Next()));
    groups.push_back(std::move(g));
  }
  const Buffer buf = EncodeGroups(groups);
  std::vector<Group> out;
  ASSERT_TRUE(DecodeGroups(buf.AsSlice(), &out).ok());
  ASSERT_EQ(out.size(), groups.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].dst, groups[i].dst);
    EXPECT_EQ(out[i].payloads, groups[i].payloads);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupedFuzzTest, ::testing::Values(1, 5, 42));

TEST(FlatBatch, OversizedCountRejectedWithoutAllocating) {
  // A huge declared count with a tiny body used to drive reserve(); it must
  // come back as a Corruption status instead.
  Buffer buf;
  Encoder enc(&buf);
  enc.PutVarint64(uint64_t{1} << 60);
  enc.PutFixed32(7);
  RecordSlab out(8);
  Status st = DecodeFlat(buf.AsSlice(), &out);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_TRUE(out.empty());
}

TEST(GroupedBatch, OversizedCountsRejectedWithoutAllocating) {
  {
    Buffer buf;
    Encoder enc(&buf);
    enc.PutVarint64(uint64_t{1} << 60);  // group count >> input size
    std::vector<Group> out;
    EXPECT_EQ(DecodeGroups(buf.AsSlice(), &out).code(),
              StatusCode::kCorruption);
    EXPECT_TRUE(out.empty());
  }
  {
    Buffer buf;
    Encoder enc(&buf);
    enc.PutVarint64(1);                  // one group...
    enc.PutFixed32(3);                   // dst
    enc.PutVarint64(uint64_t{1} << 60);  // ...claiming 2^60 payloads
    std::vector<Group> out;
    EXPECT_EQ(DecodeGroups(buf.AsSlice(), &out).code(),
              StatusCode::kCorruption);
    EXPECT_TRUE(out.empty());
  }
  {
    // A count that fits the input but whose payloads are cut short.
    Buffer buf = EncodeGroups({{3, {Payload8(1), Payload8(2)}}});
    std::vector<Group> out;
    EXPECT_FALSE(DecodeGroups(Slice(buf.data(), buf.size() - 1), &out).ok());
    EXPECT_TRUE(out.empty());
  }
}

// Every truncation point and every single-byte corruption of a valid encoding
// must either decode (possibly to different values — the formats carry no
// checksum) or return an error Status; it must never crash or hang.
TEST(CodecFuzz, TruncationsAndBitFlipsNeverCrash) {
  Rng rng(2024);
  for (int round = 0; round < 20; ++round) {
    std::vector<Group> groups;
    const int n = 1 + rng.NextBounded(10);
    for (int i = 0; i < n; ++i) {
      Group g{static_cast<uint32_t>(rng.Next()), {}};
      const int k = rng.NextBounded(5);
      for (int j = 0; j < k; ++j) g.payloads.push_back(Payload8(rng.Next()));
      groups.push_back(std::move(g));
    }
    const Buffer buf = EncodeGroups(groups);

    for (size_t cut = 0; cut < buf.size(); ++cut) {
      // A strict prefix of a non-empty batch never decodes fully intact;
      // partial decodes that happen to parse are acceptable.
      std::vector<Group> out;
      (void)DecodeGroups(Slice(buf.data(), cut), &out);
    }
    std::vector<uint8_t> bytes(buf.data(), buf.data() + buf.size());
    for (int flip = 0; flip < 64; ++flip) {
      std::vector<uint8_t> mutated = bytes;
      mutated[rng.NextBounded(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBounded(8));
      std::vector<Group> out;
      (void)DecodeGroups(Slice(mutated), &out);
    }
  }
}

TEST(CodecFuzz, RandomGarbageNeverCrashes) {
  Rng rng(77);
  for (int round = 0; round < 200; ++round) {
    std::vector<uint8_t> junk(rng.NextBounded(64));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.Next());
    RecordSlab flat(8);
    (void)DecodeFlat(Slice(junk), &flat);
    std::vector<Group> grouped;
    (void)DecodeGroups(Slice(junk), &grouped);
  }
}

}  // namespace
}  // namespace hybridgraph
