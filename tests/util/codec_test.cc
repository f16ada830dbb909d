#include "util/codec.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace hybridgraph {
namespace {

TEST(Codec, FixedWidthRoundTrip) {
  Buffer buf;
  Encoder enc(&buf);
  enc.PutU8(0xAB);
  enc.PutFixed16(0x1234);
  enc.PutFixed32(0xDEADBEEF);
  enc.PutFixed64(0x0123456789ABCDEFULL);

  Decoder dec(buf.AsSlice());
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  ASSERT_TRUE(dec.GetU8(&u8).ok());
  ASSERT_TRUE(dec.GetFixed16(&u16).ok());
  ASSERT_TRUE(dec.GetFixed32(&u32).ok());
  ASSERT_TRUE(dec.GetFixed64(&u64).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(Codec, LittleEndianLayout) {
  Buffer buf;
  Encoder enc(&buf);
  enc.PutFixed32(0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.data()[0], 0x04);
  EXPECT_EQ(buf.data()[3], 0x01);
}

TEST(Codec, VarintBoundaries) {
  const uint64_t cases[] = {0,      1,        127,        128,
                            16383,  16384,    UINT32_MAX, uint64_t{1} << 56,
                            UINT64_MAX};
  for (uint64_t v : cases) {
    Buffer buf;
    Encoder enc(&buf);
    enc.PutVarint64(v);
    EXPECT_EQ(buf.size(), VarintLength(v)) << v;
    Decoder dec(buf.AsSlice());
    uint64_t out = 0;
    ASSERT_TRUE(dec.GetVarint64(&out).ok()) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(dec.AtEnd());
  }
}

TEST(Codec, SignedVarintRoundTrip) {
  const int64_t cases[] = {0, -1, 1, -64, 63, INT64_MIN, INT64_MAX, -123456789};
  for (int64_t v : cases) {
    Buffer buf;
    Encoder enc(&buf);
    enc.PutSignedVarint64(v);
    Decoder dec(buf.AsSlice());
    int64_t out = 0;
    ASSERT_TRUE(dec.GetSignedVarint64(&out).ok()) << v;
    EXPECT_EQ(out, v);
  }
}

TEST(Codec, FloatsRoundTrip) {
  Buffer buf;
  Encoder enc(&buf);
  enc.PutFloat(3.14f);
  enc.PutDouble(-2.718281828459045);
  Decoder dec(buf.AsSlice());
  float f = 0;
  double d = 0;
  ASSERT_TRUE(dec.GetFloat(&f).ok());
  ASSERT_TRUE(dec.GetDouble(&d).ok());
  EXPECT_FLOAT_EQ(f, 3.14f);
  EXPECT_DOUBLE_EQ(d, -2.718281828459045);
}

TEST(Codec, LengthPrefixed) {
  Buffer buf;
  Encoder enc(&buf);
  enc.PutLengthPrefixed(std::string("hello"));
  enc.PutLengthPrefixed(std::string(""));
  Decoder dec(buf.AsSlice());
  Slice a, b;
  ASSERT_TRUE(dec.GetLengthPrefixed(&a).ok());
  ASSERT_TRUE(dec.GetLengthPrefixed(&b).ok());
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(dec.AtEnd());
}

TEST(Codec, TruncatedInputsFailCleanly) {
  Buffer buf;
  Encoder enc(&buf);
  enc.PutFixed64(42);
  // Chop one byte off.
  Decoder dec(Slice(buf.data(), buf.size() - 1));
  uint64_t out = 0;
  EXPECT_EQ(dec.GetFixed64(&out).code(), StatusCode::kOutOfRange);

  Decoder empty{Slice()};
  uint8_t b = 0;
  EXPECT_FALSE(empty.GetU8(&b).ok());
  uint64_t v = 0;
  EXPECT_FALSE(empty.GetVarint64(&v).ok());
}

TEST(Codec, TruncatedVarintFails) {
  // A varint with continuation bit set but no following byte.
  uint8_t bad[] = {0x80};
  Decoder dec(Slice(bad, 1));
  uint64_t v = 0;
  EXPECT_EQ(dec.GetVarint64(&v).code(), StatusCode::kOutOfRange);
}

TEST(Codec, OverlongVarintIsCorruption) {
  // 11 continuation bytes exceed 64 bits.
  std::vector<uint8_t> bad(12, 0x80);
  bad.back() = 0x01;
  Decoder dec{Slice(bad)};
  uint64_t v = 0;
  EXPECT_EQ(dec.GetVarint64(&v).code(), StatusCode::kCorruption);
}

TEST(Codec, SkipAndPosition) {
  Buffer buf;
  Encoder enc(&buf);
  enc.PutFixed32(1);
  enc.PutFixed32(2);
  Decoder dec(buf.AsSlice());
  ASSERT_TRUE(dec.Skip(4).ok());
  EXPECT_EQ(dec.position(), 4u);
  uint32_t v = 0;
  ASSERT_TRUE(dec.GetFixed32(&v).ok());
  EXPECT_EQ(v, 2u);
  EXPECT_FALSE(dec.Skip(1).ok());
}

class CodecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecFuzzTest, RandomSequenceRoundTrips) {
  Rng rng(GetParam());
  constexpr int kOps = 200;
  std::vector<uint64_t> varints;
  std::vector<uint32_t> fixeds;
  std::vector<double> doubles;

  Buffer buf;
  Encoder enc(&buf);
  for (int i = 0; i < kOps; ++i) {
    const uint64_t v = rng.Next() >> (rng.Next() % 64);
    varints.push_back(v);
    enc.PutVarint64(v);
    const uint32_t f = static_cast<uint32_t>(rng.Next());
    fixeds.push_back(f);
    enc.PutFixed32(f);
    const double d = rng.NextDouble() * 1e12 - 5e11;
    doubles.push_back(d);
    enc.PutDouble(d);
  }

  Decoder dec(buf.AsSlice());
  for (int i = 0; i < kOps; ++i) {
    uint64_t v = 0;
    uint32_t f = 0;
    double d = 0;
    ASSERT_TRUE(dec.GetVarint64(&v).ok());
    ASSERT_TRUE(dec.GetFixed32(&f).ok());
    ASSERT_TRUE(dec.GetDouble(&d).ok());
    EXPECT_EQ(v, varints[i]);
    EXPECT_EQ(f, fixeds[i]);
    EXPECT_DOUBLE_EQ(d, doubles[i]);
  }
  EXPECT_TRUE(dec.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzTest,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

}  // namespace
}  // namespace hybridgraph
