#include "graph/partition.h"

#include <gtest/gtest.h>

namespace hybridgraph {
namespace {

TEST(RangePartition, EvenSplit) {
  auto r = RangePartition::CreateUniform(100, 4, 1);
  ASSERT_TRUE(r.ok());
  const RangePartition& p = *r;
  EXPECT_EQ(p.num_nodes(), 4u);
  EXPECT_EQ(p.num_vblocks(), 4u);
  for (uint32_t n = 0; n < 4; ++n) {
    EXPECT_EQ(p.NodeRange(n).size(), 25u);
  }
  EXPECT_EQ(p.NodeOf(0), 0u);
  EXPECT_EQ(p.NodeOf(24), 0u);
  EXPECT_EQ(p.NodeOf(25), 1u);
  EXPECT_EQ(p.NodeOf(99), 3u);
}

TEST(RangePartition, UnevenSplitDiffersByAtMostOne) {
  auto r = RangePartition::CreateUniform(103, 4, 3);
  ASSERT_TRUE(r.ok());
  const RangePartition& p = *r;
  uint32_t mn = UINT32_MAX, mx = 0;
  for (uint32_t n = 0; n < 4; ++n) {
    mn = std::min(mn, p.NodeRange(n).size());
    mx = std::max(mx, p.NodeRange(n).size());
  }
  EXPECT_LE(mx - mn, 1u);
  uint32_t vmn = UINT32_MAX, vmx = 0;
  for (uint32_t vb = 0; vb < p.num_vblocks(); ++vb) {
    vmn = std::min(vmn, p.VblockRange(vb).size());
    vmx = std::max(vmx, p.VblockRange(vb).size());
  }
  EXPECT_LE(vmx - vmn, 1u);
}

TEST(RangePartition, PerNodeVblockCounts) {
  auto r = RangePartition::Create(100, 3, {1, 2, 4});
  ASSERT_TRUE(r.ok());
  const RangePartition& p = *r;
  EXPECT_EQ(p.num_vblocks(), 7u);
  EXPECT_EQ(p.NumVblocksOf(0), 1u);
  EXPECT_EQ(p.NumVblocksOf(1), 2u);
  EXPECT_EQ(p.NumVblocksOf(2), 4u);
  EXPECT_EQ(p.FirstVblockOf(0), 0u);
  EXPECT_EQ(p.FirstVblockOf(1), 1u);
  EXPECT_EQ(p.FirstVblockOf(2), 3u);
  EXPECT_EQ(p.LastVblockOf(2), 7u);
}

TEST(RangePartition, InvalidArguments) {
  EXPECT_FALSE(RangePartition::CreateUniform(10, 0, 1).ok());
  EXPECT_FALSE(RangePartition::Create(10, 2, {1}).ok());
  EXPECT_FALSE(RangePartition::Create(10, 2, {1, 0}).ok());
}

// ------------------------------------------------- degree-balanced splits

TEST(DegreeBalancedPartition, RegularGraphDegeneratesToUniform) {
  // All degrees equal -> the weight prefix sum is linear in the vertex id,
  // so every greedy cut lands exactly where the uniform split puts it.
  for (const uint32_t degree : {0u, 3u}) {
    for (const auto& [n, nodes, vblocks] :
         std::vector<std::tuple<uint64_t, uint32_t, uint32_t>>{
             {100, 4, 1}, {103, 4, 3}, {31, 30, 1}, {1000, 7, 5}}) {
      const std::vector<uint32_t> degrees(n, degree);
      auto br = RangePartition::CreateDegreeBalanced(
          n, nodes, std::vector<uint32_t>(nodes, vblocks), degrees);
      auto ur = RangePartition::CreateUniform(n, nodes, vblocks);
      ASSERT_TRUE(br.ok());
      ASSERT_TRUE(ur.ok());
      for (uint32_t node = 0; node < nodes; ++node) {
        EXPECT_EQ(br->NodeRange(node).begin, ur->NodeRange(node).begin);
        EXPECT_EQ(br->NodeRange(node).end, ur->NodeRange(node).end);
      }
      for (uint32_t vb = 0; vb < br->num_vblocks(); ++vb) {
        EXPECT_EQ(br->VblockRange(vb).begin, ur->VblockRange(vb).begin);
        EXPECT_EQ(br->VblockRange(vb).end, ur->VblockRange(vb).end);
      }
    }
  }
}

TEST(DegreeBalancedPartition, HubPrefixGetsItsOwnSmallRange) {
  // 1000 vertices; the first 10 carry out-degree 500 each, the rest 1.
  // Uniform over 4 nodes dumps all hubs (and >80% of the edges) on node 0;
  // the balanced split gives node 0 far fewer vertices so the edge weight
  // evens out.
  const uint64_t n = 1000;
  std::vector<uint32_t> degrees(n, 1);
  for (int h = 0; h < 10; ++h) degrees[h] = 500;
  auto r = RangePartition::CreateDegreeBalanced(n, 4, {1, 1, 1, 1}, degrees);
  ASSERT_TRUE(r.ok());
  const RangePartition& p = *r;
  // Per-node weight (degree + 1): total 10*501 + 990*2 = 6990, target ~1748.
  // Node 0 must stop after a handful of hubs instead of taking 250 vertices.
  EXPECT_LT(p.NodeRange(0).size(), 20u);
  uint64_t max_weight = 0, total_weight = 0;
  for (uint32_t node = 0; node < 4; ++node) {
    uint64_t w = 0;
    for (VertexId v = p.NodeRange(node).begin; v < p.NodeRange(node).end; ++v) {
      w += degrees[v] + 1;
    }
    max_weight = std::max(max_weight, w);
    total_weight += w;
  }
  // No node holds more than half the weight (uniform gives node 0 ~73%).
  EXPECT_LT(max_weight * 2, total_weight);
  // Every node still owns at least one vertex.
  for (uint32_t node = 0; node < 4; ++node) {
    EXPECT_GE(p.NodeRange(node).size(), 1u);
  }
}

TEST(DegreeBalancedPartition, MegaDegreeVertexStillYieldsValidRanges) {
  // One vertex outweighs everything else combined; every node must still get
  // a non-empty contiguous range and lookups must stay consistent.
  const uint64_t n = 64;
  std::vector<uint32_t> degrees(n, 0);
  degrees[5] = 1u << 30;
  auto r = RangePartition::CreateDegreeBalanced(n, 8, {2, 2, 2, 2, 2, 2, 2, 2},
                                                degrees);
  ASSERT_TRUE(r.ok());
  const RangePartition& p = *r;
  uint64_t covered = 0;
  for (uint32_t node = 0; node < 8; ++node) {
    const VertexRange range = p.NodeRange(node);
    EXPECT_GE(range.size(), 1u);
    covered += range.size();
    if (node > 0) {
      EXPECT_EQ(range.begin, p.NodeRange(node - 1).end);
    }
  }
  EXPECT_EQ(covered, n);
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_TRUE(p.NodeRange(p.NodeOf(v)).Contains(v));
    EXPECT_TRUE(p.VblockRange(p.VblockOf(v)).Contains(v));
    EXPECT_EQ(p.NodeOfVblock(p.VblockOf(v)), p.NodeOf(v));
  }
}

TEST(DegreeBalancedPartition, NodeBoundariesIndependentOfVblockCounts) {
  // The coarse (1 Vblock) and final (many Vblocks) partitions must agree on
  // NodeOf for Eq. (5)/(6) sizing to be sound.
  const uint64_t n = 500;
  std::vector<uint32_t> degrees(n);
  for (uint64_t v = 0; v < n; ++v) {
    degrees[v] = static_cast<uint32_t>((v * 37) % 23);
  }
  auto coarse =
      RangePartition::CreateDegreeBalanced(n, 5, {1, 1, 1, 1, 1}, degrees);
  auto fine =
      RangePartition::CreateDegreeBalanced(n, 5, {3, 1, 7, 2, 4}, degrees);
  ASSERT_TRUE(coarse.ok());
  ASSERT_TRUE(fine.ok());
  for (uint32_t node = 0; node < 5; ++node) {
    EXPECT_EQ(coarse->NodeRange(node).begin, fine->NodeRange(node).begin);
    EXPECT_EQ(coarse->NodeRange(node).end, fine->NodeRange(node).end);
  }
}

TEST(DegreeBalancedPartition, InvalidArguments) {
  const std::vector<uint32_t> degrees(10, 1);
  EXPECT_FALSE(
      RangePartition::CreateDegreeBalanced(10, 0, {}, degrees).ok());
  EXPECT_FALSE(
      RangePartition::CreateDegreeBalanced(10, 2, {1}, degrees).ok());
  EXPECT_FALSE(
      RangePartition::CreateDegreeBalanced(10, 2, {1, 0}, degrees).ok());
  // Degree vector must cover every vertex.
  EXPECT_FALSE(RangePartition::CreateDegreeBalanced(
                   10, 2, {1, 1}, std::vector<uint32_t>(9, 1))
                   .ok());
}

class PartitionPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t, uint32_t>> {
};

TEST_P(PartitionPropertyTest, LookupsConsistentWithRanges) {
  const auto [n, nodes, vblocks] = GetParam();
  auto r = RangePartition::CreateUniform(n, nodes, vblocks);
  ASSERT_TRUE(r.ok());
  const RangePartition& p = *r;

  // Ranges tile the vertex space.
  uint64_t covered = 0;
  for (uint32_t vb = 0; vb < p.num_vblocks(); ++vb) {
    const VertexRange range = p.VblockRange(vb);
    covered += range.size();
    EXPECT_EQ(p.NodeOfVblock(vb), p.NodeOf(range.begin));
    // Vblock ranges nest inside node ranges.
    const VertexRange nr = p.NodeRange(p.NodeOfVblock(vb));
    EXPECT_GE(range.begin, nr.begin);
    EXPECT_LE(range.end, nr.end);
  }
  EXPECT_EQ(covered, n);

  // Point lookups agree with ranges for every vertex.
  for (VertexId v = 0; v < n; ++v) {
    const NodeId node = p.NodeOf(v);
    EXPECT_TRUE(p.NodeRange(node).Contains(v));
    const uint32_t vb = p.VblockOf(v);
    EXPECT_TRUE(p.VblockRange(vb).Contains(v));
    EXPECT_EQ(p.NodeOfVblock(vb), node);
    EXPECT_GE(vb, p.FirstVblockOf(node));
    EXPECT_LT(vb, p.LastVblockOf(node));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionPropertyTest,
    ::testing::Values(std::make_tuple(uint64_t{50}, 1u, 1u),
                      std::make_tuple(uint64_t{50}, 5u, 3u),
                      std::make_tuple(uint64_t{97}, 7u, 4u),
                      std::make_tuple(uint64_t{1000}, 30u, 8u),
                      std::make_tuple(uint64_t{31}, 30u, 1u)));

}  // namespace
}  // namespace hybridgraph
