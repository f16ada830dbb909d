#include "graph/edge_list.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "util/codec.h"

namespace hybridgraph {
namespace {

EdgeListGraph Sample() {
  EdgeListGraph g;
  g.num_vertices = 5;
  g.edges = {{0, 1, 1.5f}, {1, 2, 1.0f}, {0, 2, 2.0f}, {4, 0, 0.5f}};
  return g;
}

TEST(EdgeList, Degrees) {
  const EdgeListGraph g = Sample();
  const auto out = g.OutDegrees();
  const auto in = g.InDegrees();
  EXPECT_EQ(out[0], 2u);
  EXPECT_EQ(out[1], 1u);
  EXPECT_EQ(out[3], 0u);
  EXPECT_EQ(in[2], 2u);
  EXPECT_EQ(in[0], 1u);
  EXPECT_EQ(g.MaxOutDegree(), 2u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.8);
}

TEST(EdgeList, SortBySource) {
  EdgeListGraph g = Sample();
  g.SortBySource();
  for (size_t i = 1; i < g.edges.size(); ++i) {
    EXPECT_LE(g.edges[i - 1].src, g.edges[i].src);
  }
  EXPECT_EQ(g.edges[0].dst, 1u);  // (0,1) before (0,2)
}

TEST(EdgeList, Validate) {
  EdgeListGraph g = Sample();
  EXPECT_TRUE(g.Validate().ok());
  g.edges.push_back({9, 0, 1.0f});
  EXPECT_EQ(g.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(EdgeListText, ParseBasic) {
  auto r = ParseEdgeListText("# comment\n0 1\n1 2 3.5\n\n% other comment\n2 0\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_vertices, 3u);
  ASSERT_EQ(r->edges.size(), 3u);
  EXPECT_FLOAT_EQ(r->edges[0].weight, 1.0f);  // default weight
  EXPECT_FLOAT_EQ(r->edges[1].weight, 3.5f);
}

TEST(EdgeListText, VerticesHeaderWins) {
  auto r = ParseEdgeListText("# vertices: 10\n0 1\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_vertices, 10u);
}

TEST(EdgeListText, BadLineIsCorruption) {
  EXPECT_EQ(ParseEdgeListText("0 1\nbanana\n").status().code(),
            StatusCode::kCorruption);
}

TEST(EdgeListText, RoundTrip) {
  const EdgeListGraph g = Sample();
  auto r = ParseEdgeListText(WriteEdgeListText(g));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_vertices, g.num_vertices);
  EXPECT_EQ(r->edges, g.edges);
}

TEST(EdgeListBinary, RoundTrip) {
  const EdgeListGraph g = Sample();
  auto r = DecodeEdgeListBinary(EncodeEdgeListBinary(g));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_vertices, g.num_vertices);
  EXPECT_EQ(r->edges, g.edges);
}

TEST(EdgeListBinary, BadMagic) {
  std::vector<uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(DecodeEdgeListBinary(junk).status().code(), StatusCode::kCorruption);
}

TEST(EdgeListBinary, TrailingBytes) {
  auto bytes = EncodeEdgeListBinary(Sample());
  bytes.push_back(0);
  EXPECT_EQ(DecodeEdgeListBinary(bytes).status().code(),
            StatusCode::kCorruption);
}

TEST(EdgeListBinary, EdgeCountBeyondTheBytesIsCorruption) {
  // A 1-edge file whose header claims 2^40 edges must not reach reserve().
  EdgeListGraph g;
  g.num_vertices = 2;
  g.edges = {{0, 1, 1.0f}};
  auto bytes = EncodeEdgeListBinary(g);
  EncodeFixed<uint64_t>(bytes.data() + 12, uint64_t{1} << 40);
  EXPECT_EQ(DecodeEdgeListBinary(bytes).status().code(),
            StatusCode::kCorruption);
}

TEST(EdgeListFile, SaveLoadBothFormats) {
  const EdgeListGraph g = Sample();
  const std::string dir = ::testing::TempDir();
  for (bool binary : {false, true}) {
    const std::string path =
        dir + "/edge_list_test_" + (binary ? "bin" : "txt") + ".graph";
    ASSERT_TRUE(SaveEdgeListFile(g, path, binary).ok());
    auto r = LoadEdgeListFile(path);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->edges, g.edges);
    std::filesystem::remove(path);
  }
  EXPECT_EQ(LoadEdgeListFile(dir + "/nope.graph").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace hybridgraph
