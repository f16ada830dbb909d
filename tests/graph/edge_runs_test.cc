// Tests for the edge-run record module: the writer's bytes and byte split,
// the walker's checks for both layouts, and the delta merge against the
// ApplyBatchToGraph oracle.
#include "graph/edge_runs.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "util/rng.h"

namespace hybridgraph {
namespace {

using Lists = std::map<VertexId, std::vector<Edge>>;

/// The reference encoding of a fragment blob, via the generic Encoder.
std::vector<uint8_t> ReferenceFragments(const Lists& lists) {
  Buffer buf;
  Encoder enc(&buf);
  enc.PutVarint64(lists.size());
  for (const auto& [src, edges] : lists) {
    enc.PutFixed32(src);
    enc.PutVarint64(edges.size());
    for (const Edge& e : edges) {
      enc.PutFixed32(e.dst);
      enc.PutFloat(e.weight);
    }
  }
  return buf.TakeBytes();
}

/// Writes `lists` as a fragment blob.
std::vector<uint8_t> WriteFragments(const Lists& lists, EblockIndex* idx) {
  std::vector<uint8_t> blob;
  EdgeRunWriter writer(&blob);
  for (const auto& [src, edges] : lists) {
    writer.AddRun(src, edges.size(), [&](uint64_t i) { return edges[i]; });
  }
  writer.FinishFragments();
  *idx = writer.index();
  return blob;
}

/// Walks every run; returns the lists and the walk's status.
Status Walk(EdgeRunWalker runs, Lists* out) {
  out->clear();
  for (EdgeRun run; runs.Next(&run);) {
    std::vector<Edge>& edges = (*out)[run.src];
    for (const Edge e : run.edges) edges.push_back(e);
  }
  return runs.status();
}

TEST(EdgeRuns, WriterMatchesReferenceEncodingAndSplit) {
  Lists lists;
  for (VertexId v = 3; v < 40; v += 3) {
    for (uint32_t k = 0; k < v * 5; ++k) {
      lists[v].push_back({v + k, static_cast<float>(k) * 0.5f});
    }
  }
  EblockIndex idx;
  const std::vector<uint8_t> blob = WriteFragments(lists, &idx);
  EXPECT_EQ(blob, ReferenceFragments(lists));
  uint64_t aux = VarintLength(lists.size());
  uint64_t edges = 0;
  for (const auto& [src, list] : lists) {
    aux += 4 + VarintLength(list.size());
    edges += list.size();
  }
  EXPECT_EQ(idx.num_fragments, lists.size());
  EXPECT_EQ(idx.num_edges, edges);
  EXPECT_EQ(idx.aux_bytes, aux);
  EXPECT_EQ(idx.edge_bytes, edges * kEdgeEncodedSize);
  EXPECT_EQ(idx.total_bytes(), blob.size());
}

TEST(EdgeRuns, WalkerYieldsRunsInPlaceWithTheirOffsets) {
  const Lists lists = {{2, {{5, 1.0f}, {6, 2.0f}}}, {4, {{7, 3.0f}}}};
  EblockIndex idx;
  const std::vector<uint8_t> blob = WriteFragments(lists, &idx);
  EdgeRunWalker runs = EdgeRunWalker::Fragments(Slice(blob), {0, 8}, {0, 8});
  EdgeRun run;
  ASSERT_TRUE(runs.Next(&run));
  EXPECT_EQ(run.src, 2u);
  EXPECT_EQ(run.offset, 1u);  // after the one-byte count
  ASSERT_EQ(run.edges.size(), 2u);
  EXPECT_EQ(*++run.edges.begin(), (Edge{6, 2.0f}));
  ASSERT_TRUE(runs.Next(&run));
  EXPECT_EQ(run.src, 4u);
  EXPECT_EQ(run.offset, 1u + 5 + 16);
  const EdgeRun again = RunAt(Slice(blob), run.offset);
  EXPECT_EQ(again.src, 4u);
  ASSERT_EQ(again.edges.size(), 1u);
  EXPECT_EQ(*again.edges.begin(), (Edge{7, 3.0f}));
  EXPECT_FALSE(runs.Next(&run));
  EXPECT_TRUE(runs.status().ok());
  // A default walker has no runs.
  EdgeRunWalker none;
  EXPECT_FALSE(none.Next(&run));
  EXPECT_TRUE(none.status().ok());
}

TEST(EdgeRuns, AdjacencyWalkChecksIdsCountAndDestinations) {
  // Vertices 10..12 of a 20-vertex graph; 11 has no out-edges.
  const auto block_of = [](std::vector<VertexId> ids, VertexId dst) {
    std::vector<uint8_t> block;
    EdgeRunWriter writer(&block);
    for (const VertexId v : ids) {
      writer.AddRun(v, v == 11 ? 0 : 1,
                    [&](uint64_t) { return Edge{dst, 1.0f}; });
    }
    return block;
  };
  const VertexRange r{10, 13};
  const VertexRange all{0, 20};
  Lists got;
  const std::vector<uint8_t> good = block_of({10, 11, 12}, 19);
  ASSERT_TRUE(Walk(EdgeRunWalker::Adjacency(Slice(good), r, all), &got).ok());
  EXPECT_EQ(got.size(), 3u);
  EXPECT_TRUE(got[11].empty());
  for (const auto& bad :
       {block_of({10, 12, 11}, 19), block_of({10, 11}, 19),
        block_of({10, 11, 12, 13}, 19), block_of({10, 11, 12}, 20)}) {
    EXPECT_EQ(Walk(EdgeRunWalker::Adjacency(Slice(bad), r, all), &got).code(),
              StatusCode::kCorruption);
  }
}

TEST(EdgeRuns, FragmentWalkRejectsDisorderEmptyRunsAndForeignIds) {
  const VertexRange src{10, 20};
  const VertexRange dst{30, 40};
  const auto blob_of = [](std::vector<std::pair<VertexId, VertexId>> runs) {
    Buffer buf;
    Encoder enc(&buf);
    enc.PutVarint64(runs.size());
    for (const auto& [s, d] : runs) {
      enc.PutFixed32(s);
      enc.PutVarint64(d == 0 ? 0 : 1);
      if (d != 0) {
        enc.PutFixed32(d);
        enc.PutFloat(1.0f);
      }
    }
    return buf.TakeBytes();
  };
  Lists got;
  const std::vector<uint8_t> good = blob_of({{10, 30}, {19, 39}});
  ASSERT_TRUE(
      Walk(EdgeRunWalker::Fragments(Slice(good), src, dst), &got).ok());
  for (const auto& bad :
       {blob_of({{12, 30}, {11, 30}}), blob_of({{12, 30}, {12, 31}}),
        blob_of({{12, 0}}), blob_of({{9, 30}}), blob_of({{20, 30}}),
        blob_of({{12, 29}}), blob_of({{12, 40}})}) {
    EXPECT_EQ(
        Walk(EdgeRunWalker::Fragments(Slice(bad), src, dst), &got).code(),
        StatusCode::kCorruption);
  }
  std::vector<uint8_t> trailing = good;
  trailing.push_back(0);
  EXPECT_EQ(
      Walk(EdgeRunWalker::Fragments(Slice(trailing), src, dst), &got).code(),
      StatusCode::kCorruption);
}

TEST(EdgeRuns, MergeMatchesApplyBatchToGraph) {
  // Random lists and batches over sources 0..15 and destinations 0..7 (so
  // duplicates and repeated deletes are common), merged as both layouts.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    EdgeListGraph graph;
    graph.num_vertices = 16;
    for (int i = 0; i < 40; ++i) {
      graph.edges.push_back({static_cast<VertexId>(rng.Next() % 16),
                             static_cast<VertexId>(rng.Next() % 8),
                             static_cast<float>(i)});
    }
    EdgeBatch batch;
    for (int i = 0; i < 30; ++i) {
      EdgeDelta d;
      d.src = static_cast<VertexId>(rng.Next() % 16);
      d.dst = static_cast<VertexId>(rng.Next() % 8);
      d.weight = 100.0f + static_cast<float>(i);
      d.is_delete = rng.Next() % 2 == 0;
      batch.deltas.push_back(d);
      if (i % 7 == 0) {
        batch.deltas.push_back({d.src, d.dst, 0.0f, !d.is_delete});
      }
    }
    const auto lists_of = [](const EdgeListGraph& g) {
      Lists lists;
      for (const RawEdge& e : g.edges) {
        lists[e.src].push_back({e.dst, e.weight});
      }
      return lists;
    };
    const Lists before = lists_of(graph);
    EdgeListGraph after_graph = graph;
    ApplyBatchToGraph(&after_graph, batch);
    const Lists after = lists_of(after_graph);
    DegreeDeltaMap want_out, want_in;
    for (const RawEdge& e : graph.edges) {
      --want_out[e.src];
      --want_in[e.dst];
    }
    for (const RawEdge& e : after_graph.edges) {
      ++want_out[e.src];
      ++want_in[e.dst];
    }

    // Fragment layout: lists that empty are dropped.
    EblockIndex idx;
    const std::vector<uint8_t> base = WriteFragments(before, &idx);
    std::vector<uint8_t> merged;
    EdgeRunWriter writer(&merged);
    DegreeDeltaMap out_deg, in_deg;
    ASSERT_TRUE(MergeEdgeRuns(EdgeRunWalker::Fragments(Slice(base), {0, 16},
                                                       {0, 8}),
                              batch.deltas, /*keep_empty=*/false, &writer,
                              &out_deg, &in_deg)
                    .ok());
    writer.FinishFragments();
    EblockIndex want_idx;
    EXPECT_EQ(merged, WriteFragments(after, &want_idx)) << "seed " << seed;
    EXPECT_EQ(writer.index().aux_bytes, want_idx.aux_bytes);
    for (VertexId v = 0; v < 16; ++v) {
      EXPECT_EQ(out_deg[v], want_out[v]) << "seed " << seed << " v " << v;
      EXPECT_EQ(in_deg[v], want_in[v]) << "seed " << seed << " v " << v;
    }

    // Adjacency layout: every vertex keeps its record.
    std::vector<uint8_t> block;
    EdgeRunWriter block_writer(&block);
    for (VertexId v = 0; v < 16; ++v) {
      const std::vector<Edge> l =
          before.count(v) ? before.at(v) : std::vector<Edge>{};
      block_writer.AddRun(v, l.size(), [&](uint64_t i) { return l[i]; });
    }
    std::vector<uint8_t> merged_block;
    EdgeRunWriter merged_writer(&merged_block);
    ASSERT_TRUE(MergeEdgeRuns(EdgeRunWalker::Adjacency(Slice(block), {0, 16},
                                                       {0, 16}),
                              batch.deltas, /*keep_empty=*/true,
                              &merged_writer, nullptr, nullptr)
                    .ok());
    Lists got;
    ASSERT_TRUE(Walk(EdgeRunWalker::Adjacency(Slice(merged_block), {0, 16},
                                              {0, 16}),
                     &got)
                    .ok());
    ASSERT_EQ(got.size(), 16u);
    for (VertexId v = 0; v < 16; ++v) {
      const std::vector<Edge> want =
          after.count(v) ? after.at(v) : std::vector<Edge>{};
      EXPECT_EQ(got[v], want) << "seed " << seed << " v " << v;
    }
  }
}

TEST(EdgeRuns, MergeOfCorruptBaseIsCorruption) {
  std::vector<uint8_t> blob = {2, 1, 0, 0, 0};  // claims 2 runs, holds half
  std::vector<uint8_t> out;
  EdgeRunWriter writer(&out);
  EXPECT_EQ(MergeEdgeRuns(EdgeRunWalker::Fragments(Slice(blob), {0, 9}, {0, 9}),
                          {}, false, &writer, nullptr, nullptr)
                .code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace hybridgraph
