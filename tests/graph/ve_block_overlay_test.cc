// Tests for the mutable VE-BLOCK overlay: merged scans must match a cold
// VeBlockStore::Build over the mutated edge list, compaction must preserve
// that view while clearing the delta backlog, and the overlay.compact
// fail-point must leave a torn state RecoverCompaction can repair.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "graph/edge_delta.h"
#include "graph/edge_runs.h"
#include "graph/generator.h"
#include "graph/ve_block_overlay.h"
#include "graph/ve_block_store.h"
#include "io/prefetch.h"
#include "util/codec.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hybridgraph {
namespace {

using ScanResult = VeBlockStore::ScanResult;

/// One walked run, copied out for comparison.
struct WalkedRun {
  VertexId src;
  std::vector<Edge> edges;
};

/// The runs of a scan, which must walk cleanly.
std::vector<WalkedRun> RunsOf(const ScanResult& scan) {
  std::vector<WalkedRun> runs;
  EdgeRunWalker walker = scan.Walk();
  for (EdgeRun run; walker.Next(&run);) {
    runs.push_back({run.src, {}});
    for (const Edge e : run.edges) runs.back().edges.push_back(e);
  }
  EXPECT_TRUE(walker.status().ok()) << walker.status().ToString();
  return runs;
}

struct Fixture {
  EdgeListGraph graph;
  RangePartition partition;
  MemStorage storage;
  NodeId node = 0;
  std::vector<RawEdge> local_edges;

  explicit Fixture(uint64_t n = 120, uint32_t nodes = 2,
                   uint32_t vblocks_per_node = 3, uint64_t seed = 17) {
    graph = GeneratePowerLaw(n, 5.0, 0.7, seed);
    partition =
        RangePartition::CreateUniform(n, nodes, vblocks_per_node).ValueOrDie();
    RefreshLocalEdges();
  }

  void RefreshLocalEdges() {
    local_edges.clear();
    for (const auto& e : graph.edges) {
      if (partition.NodeOf(e.src) == node) local_edges.push_back(e);
    }
  }

  std::unique_ptr<VeBlockOverlay> BuildOverlay() {
    return VeBlockOverlay::Build(&storage, partition, node, local_edges,
                                 graph.InDegrees())
        .ValueOrDie();
  }

  /// Cold-built base store over the CURRENT graph (a fresh MemStorage so the
  /// overlay's keys don't collide) — the oracle a merged scan must match.
  std::unique_ptr<VeBlockStore> ColdStore(MemStorage* cold_storage) {
    RefreshLocalEdges();
    return VeBlockStore::Build(cold_storage, partition, node, local_edges,
                               graph.InDegrees())
        .ValueOrDie();
  }
};

/// Generates a deterministic mixed batch: inserts of fresh pairs plus
/// deletes of live node-local edges.
EdgeBatch MakeBatch(const EdgeListGraph& graph, const RangePartition& part,
                    NodeId node, uint32_t inserts, uint32_t deletes,
                    uint64_t seed) {
  Rng rng(seed);
  EdgeBatch batch;
  std::vector<const RawEdge*> local;
  for (const auto& e : graph.edges) {
    if (part.NodeOf(e.src) == node) local.push_back(&e);
  }
  const VertexRange nr = part.NodeRange(node);
  for (uint32_t i = 0; i < inserts; ++i) {
    EdgeDelta d;
    d.src = nr.begin + static_cast<VertexId>(rng.Next() % nr.size());
    d.dst = static_cast<VertexId>(rng.Next() % graph.num_vertices);
    if (d.dst == d.src) d.dst = (d.dst + 1) % graph.num_vertices;
    d.weight = 1.0f + static_cast<float>(rng.Next() % 8);
    batch.deltas.push_back(d);
  }
  for (uint32_t i = 0; i < deletes && !local.empty(); ++i) {
    const RawEdge* e = local[rng.Next() % local.size()];
    EdgeDelta d;
    d.src = e->src;
    d.dst = e->dst;
    d.is_delete = true;
    batch.deltas.push_back(d);
  }
  return batch;
}

void ExpectScansMatchCold(Fixture& f, VeBlockOverlay* overlay) {
  MemStorage cold_storage;
  auto cold = f.ColdStore(&cold_storage);
  const uint32_t first_vb = f.partition.FirstVblockOf(f.node);
  const uint32_t last_vb = first_vb + f.partition.NumVblocksOf(f.node);
  for (uint32_t s = first_vb; s < last_vb; ++s) {
    for (uint32_t d = 0; d < f.partition.num_vblocks(); ++d) {
      ScanResult got_scan, want_scan;
      ASSERT_TRUE(overlay->ScanEblock(s, d, &got_scan).ok());
      ASSERT_TRUE(cold->ScanEblock(s, d, &want_scan).ok());
      const std::vector<WalkedRun> got = RunsOf(got_scan);
      const std::vector<WalkedRun> want = RunsOf(want_scan);
      ASSERT_EQ(got.size(), want.size())
          << "cell (" << s << ", " << d << ")";
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].src, want[i].src);
        ASSERT_EQ(got[i].edges.size(), want[i].edges.size())
            << "cell (" << s << ", " << d << ") src " << want[i].src;
        for (size_t j = 0; j < got[i].edges.size(); ++j) {
          EXPECT_EQ(got[i].edges[j].dst, want[i].edges[j].dst);
          EXPECT_EQ(got[i].edges[j].weight, want[i].edges[j].weight);
        }
      }
      // The merged index's fragment count gates scans; it must equal the
      // cold build's live fragment count.
      EXPECT_EQ(overlay->Index(s, d).num_fragments,
                cold->Index(s, d).num_fragments);
      EXPECT_EQ(overlay->HasEdges(s, d), cold->HasEdges(s, d));
    }
  }
  // Live fragment totals agree; byte totals may exceed the cold build while
  // delta runs are outstanding (read amplification), never undershoot.
  EXPECT_EQ(overlay->TotalFragments(), cold->TotalFragments());
  EXPECT_GE(overlay->TotalBytes(), cold->TotalBytes());
}

// ---------------------------------------------- boundary/inner classification

/// Brute-force cross-Vblock edge counts over the CURRENT graph: the oracle
/// for IsBoundary / CrossOutDegree / VblockMeta's boundary fields.
struct CrossCounts {
  std::vector<uint64_t> out, in;
};

CrossCounts BruteForceCross(const EdgeListGraph& graph,
                            const RangePartition& part) {
  CrossCounts c;
  c.out.assign(graph.num_vertices, 0);
  c.in.assign(graph.num_vertices, 0);
  for (const auto& e : graph.edges) {
    if (part.VblockOf(e.src) != part.VblockOf(e.dst)) {
      ++c.out[e.src];
      ++c.in[e.dst];
    }
  }
  return c;
}

void ExpectClassificationMatchesBruteForce(const Fixture& f,
                                           const VeBlockOverlay& overlay,
                                           NodeId node) {
  const CrossCounts c = BruteForceCross(f.graph, f.partition);
  const VertexRange nr = f.partition.NodeRange(node);
  for (VertexId v = nr.begin; v < nr.begin + nr.size(); ++v) {
    EXPECT_EQ(overlay.IsBoundary(v), c.out[v] + c.in[v] > 0) << "v=" << v;
    EXPECT_EQ(overlay.CrossOutDegree(v), c.out[v]) << "v=" << v;
  }
  const uint32_t first_vb = f.partition.FirstVblockOf(node);
  for (uint32_t vb = first_vb; vb < first_vb + f.partition.NumVblocksOf(node);
       ++vb) {
    const VertexRange r = f.partition.VblockRange(vb);
    uint32_t want_boundary = 0;
    for (VertexId v = r.begin; v < r.begin + r.size(); ++v) {
      if (c.out[v] + c.in[v] > 0) ++want_boundary;
    }
    uint64_t want_inner_edges = 0;
    for (const auto& e : f.graph.edges) {
      if (f.partition.VblockOf(e.src) == vb &&
          f.partition.VblockOf(e.dst) == vb) {
        ++want_inner_edges;
      }
    }
    EXPECT_EQ(overlay.Meta(vb).num_boundary, want_boundary) << "vb=" << vb;
    EXPECT_EQ(overlay.Meta(vb).inner_edges, want_inner_edges) << "vb=" << vb;
    EXPECT_EQ(overlay.InnerIndex(vb).num_edges, want_inner_edges)
        << "vb=" << vb;
  }
}

TEST(BoundaryInner, ClassificationMatchesBruteForceAtBuild) {
  Fixture f;
  auto overlay = f.BuildOverlay();
  ExpectClassificationMatchesBruteForce(f, *overlay, f.node);
}

TEST(BoundaryInner, ClassificationTracksOverlayDeltas) {
  // Two overlays (one per node) so cross-in deltas whose destinations live
  // on the other node can be routed like ApplyEdgeBatch (core/epoch_driver.h)
  // does — without the routing, remote destinations' classification would
  // go stale.
  Fixture f;
  auto overlay0 = f.BuildOverlay();
  std::vector<RawEdge> remote_edges;
  for (const auto& e : f.graph.edges) {
    if (f.partition.NodeOf(e.src) == 1) remote_edges.push_back(e);
  }
  MemStorage storage1;
  auto overlay1 = VeBlockOverlay::Build(&storage1, f.partition, /*node=*/1,
                                        remote_edges, f.graph.InDegrees())
                      .ValueOrDie();
  for (uint64_t round = 0; round < 3; ++round) {
    EdgeBatch batch =
        MakeBatch(f.graph, f.partition, f.node, 18, 9, 600 + round);
    VeBlockOverlay::DegreeDeltaMap deg, in_deg, cross_in;
    ASSERT_TRUE(
        overlay0->ApplyBatch(batch.deltas, &deg, &in_deg, &cross_in).ok());
    ApplyBatchToGraph(&f.graph, batch);
    for (const auto& [v, dd] : cross_in) {
      (f.partition.NodeOf(v) == 0 ? overlay0 : overlay1)
          ->AdjustCrossIn(v, dd);
    }
  }
  ExpectClassificationMatchesBruteForce(f, *overlay0, 0);
  ExpectClassificationMatchesBruteForce(f, *overlay1, 1);
}

TEST(BoundaryInner, ClassificationUnchangedByCompact) {
  Fixture f;
  auto overlay = f.BuildOverlay();
  EdgeBatch batch = MakeBatch(f.graph, f.partition, f.node, 25, 12, 700);
  VeBlockOverlay::DegreeDeltaMap deg, in_deg, cross_in;
  ASSERT_TRUE(
      overlay->ApplyBatch(batch.deltas, &deg, &in_deg, &cross_in).ok());
  ApplyBatchToGraph(&f.graph, batch);
  for (const auto& [v, dd] : cross_in) {
    if (f.partition.NodeOf(v) == f.node) overlay->AdjustCrossIn(v, dd);
  }
  ASSERT_TRUE(overlay->CompactAll().ok());
  // Compaction rewrites blobs, never reclassifies.
  ExpectClassificationMatchesBruteForce(f, *overlay, f.node);
}

TEST(BoundaryInner, SidecarSourceOutsideItsVblockIsCorruption) {
  // GraphHP indexes its per-source offset table and IsBoundary with the
  // sidecar's ids: a source outside the Vblock must stop the walk first.
  Fixture f;
  auto overlay = f.BuildOverlay();
  const uint32_t vb = f.partition.FirstVblockOf(f.node);
  ASSERT_GT(overlay->InnerIndex(vb).num_fragments, 0u);
  const VertexRange r = f.partition.VblockRange(vb);
  Buffer blob;
  Encoder enc(&blob);
  enc.PutVarint64(1);
  enc.PutFixed32(r.end);
  enc.PutVarint64(1);
  enc.PutFixed32(r.begin);
  enc.PutFloat(1.0f);
  char key[64];
  std::snprintf(key, sizeof(key), "node%u/einner/%06u", f.node, vb);
  ASSERT_TRUE(f.storage.Write(key, blob.AsSlice(), IoClass::kSeqWrite).ok());
  ScanResult scan;
  ASSERT_TRUE(overlay->ScanInner(vb, &scan).ok());
  EdgeRunWalker runs = scan.Walk();
  EdgeRun run;
  EXPECT_FALSE(runs.Next(&run));
  EXPECT_EQ(runs.status().code(), StatusCode::kCorruption);
}

TEST(BoundaryInner, InnerSidecarMatchesDiagonalCell) {
  // The sidecar must be an exact standalone copy of the diagonal cell — at
  // build time, after deltas (ApplyBatch rewrites it compactly), and after
  // compaction.
  Fixture f;
  auto overlay = f.BuildOverlay();
  auto expect_matches_diagonal = [&] {
    const uint32_t first_vb = f.partition.FirstVblockOf(f.node);
    for (uint32_t vb = first_vb;
         vb < first_vb + f.partition.NumVblocksOf(f.node); ++vb) {
      ScanResult inner_scan, diag_scan;
      ASSERT_TRUE(overlay->ScanInner(vb, &inner_scan).ok());
      ASSERT_TRUE(overlay->ScanEblock(vb, vb, &diag_scan).ok());
      const std::vector<WalkedRun> inner = RunsOf(inner_scan);
      const std::vector<WalkedRun> diag = RunsOf(diag_scan);
      ASSERT_EQ(inner.size(), diag.size()) << "vb=" << vb;
      for (size_t i = 0; i < inner.size(); ++i) {
        EXPECT_EQ(inner[i].src, diag[i].src);
        ASSERT_EQ(inner[i].edges.size(), diag[i].edges.size());
        for (size_t j = 0; j < inner[i].edges.size(); ++j) {
          EXPECT_EQ(inner[i].edges[j].dst, diag[i].edges[j].dst);
          EXPECT_EQ(inner[i].edges[j].weight, diag[i].edges[j].weight);
        }
      }
    }
  };
  expect_matches_diagonal();
  EdgeBatch batch = MakeBatch(f.graph, f.partition, f.node, 30, 10, 800);
  VeBlockOverlay::DegreeDeltaMap deg;
  ASSERT_TRUE(overlay->ApplyBatch(batch.deltas, &deg).ok());
  ApplyBatchToGraph(&f.graph, batch);
  expect_matches_diagonal();
  ASSERT_TRUE(overlay->CompactAll().ok());
  expect_matches_diagonal();
}

// ------------------------------------------------------------- base parity

TEST(VeBlockOverlay, UnmutatedDelegatesToBase) {
  Fixture f;
  auto overlay = f.BuildOverlay();
  MemStorage base_storage;
  auto base = VeBlockStore::Build(&base_storage, f.partition, f.node,
                                  f.local_edges, f.graph.InDegrees())
                  .ValueOrDie();
  const uint32_t first_vb = f.partition.FirstVblockOf(f.node);
  for (uint32_t s = first_vb; s < first_vb + f.partition.NumVblocksOf(f.node);
       ++s) {
    for (uint32_t d = 0; d < f.partition.num_vblocks(); ++d) {
      ScanResult got, want;
      ASSERT_TRUE(overlay->ScanEblock(s, d, &got).ok());
      ASSERT_TRUE(base->ScanEblock(s, d, &want).ok());
      // Byte-for-byte parity: frozen-graph runs keep their modeled I/O.
      EXPECT_EQ(got.aux_bytes, want.aux_bytes);
      EXPECT_EQ(got.edge_bytes, want.edge_bytes);
      ASSERT_EQ(RunsOf(got).size(), RunsOf(want).size());
      EXPECT_EQ(overlay->Index(s, d).num_edges, base->Index(s, d).num_edges);
    }
  }
  EXPECT_EQ(overlay->TotalBytes(), base->TotalBytes());
  EXPECT_EQ(overlay->TotalFragments(), base->TotalFragments());
  EXPECT_EQ(overlay->DeltaRunCount(), 0u);
  EXPECT_EQ(overlay->DeltaBytes(), 0u);
}

// --------------------------------------------------- merged-scan equivalence

TEST(VeBlockOverlay, MergedScanMatchesColdBuildAfterInserts) {
  Fixture f;
  auto overlay = f.BuildOverlay();
  EdgeBatch batch = MakeBatch(f.graph, f.partition, f.node, 40, 0, 7);
  VeBlockOverlay::DegreeDeltaMap deg;
  ASSERT_TRUE(overlay->ApplyBatch(batch.deltas, &deg).ok());
  ApplyBatchToGraph(&f.graph, batch);
  EXPECT_GT(overlay->DeltaRunCount(), 0u);
  ExpectScansMatchCold(f, overlay.get());
  // Insert-only: every touched source gains exactly its insert count.
  int64_t total = 0;
  for (const auto& [v, d] : deg) {
    EXPECT_GT(d, 0);
    total += d;
  }
  EXPECT_EQ(total, 40);
}

TEST(VeBlockOverlay, MergedScanMatchesColdBuildWithDeletes) {
  Fixture f;
  auto overlay = f.BuildOverlay();
  // Three successive batches, each mixing inserts and deletes — multi-run
  // cells plus tombstones over earlier batches' inserts.
  for (uint64_t round = 0; round < 3; ++round) {
    EdgeBatch batch =
        MakeBatch(f.graph, f.partition, f.node, 15, 10, 100 + round);
    VeBlockOverlay::DegreeDeltaMap deg, in_deg;
    ASSERT_TRUE(overlay->ApplyBatch(batch.deltas, &deg, &in_deg).ok());
    ApplyBatchToGraph(&f.graph, batch);
  }
  ExpectScansMatchCold(f, overlay.get());
}

TEST(VeBlockOverlay, DegreeDeltasMatchRecomputedDegrees) {
  Fixture f;
  auto overlay = f.BuildOverlay();
  const std::vector<uint32_t> out_before = f.graph.OutDegrees();
  const std::vector<uint32_t> in_before = f.graph.InDegrees();
  EdgeBatch batch = MakeBatch(f.graph, f.partition, f.node, 20, 12, 23);
  VeBlockOverlay::DegreeDeltaMap out_deg, in_deg;
  ASSERT_TRUE(overlay->ApplyBatch(batch.deltas, &out_deg, &in_deg).ok());
  ApplyBatchToGraph(&f.graph, batch);
  const std::vector<uint32_t> out_after = f.graph.OutDegrees();
  const std::vector<uint32_t> in_after = f.graph.InDegrees();
  for (VertexId v = 0; v < f.graph.num_vertices; ++v) {
    const int64_t want_out =
        static_cast<int64_t>(out_after[v]) - static_cast<int64_t>(out_before[v]);
    const int64_t want_in =
        static_cast<int64_t>(in_after[v]) - static_cast<int64_t>(in_before[v]);
    auto ito = out_deg.find(v);
    EXPECT_EQ(ito == out_deg.end() ? 0 : ito->second, want_out) << "v=" << v;
    auto iti = in_deg.find(v);
    EXPECT_EQ(iti == in_deg.end() ? 0 : iti->second, want_in) << "v=" << v;
  }
}

TEST(VeBlockOverlay, SameBatchInsertThenDeleteNetsToNothing) {
  Fixture f;
  auto overlay = f.BuildOverlay();
  const uint64_t bytes_before = overlay->TotalBytes();
  EdgeBatch batch;
  const VertexId src = f.partition.NodeRange(f.node).begin;
  batch.deltas.push_back({src, 99, 2.0f, false});
  batch.deltas.push_back({src, 99, 0.0f, true});
  VeBlockOverlay::DegreeDeltaMap deg;
  ASSERT_TRUE(overlay->ApplyBatch(batch.deltas, &deg).ok());
  ApplyBatchToGraph(&f.graph, batch);
  ExpectScansMatchCold(f, overlay.get());
  EXPECT_GT(overlay->TotalBytes(), bytes_before);  // run bytes still decoded
  ASSERT_TRUE(overlay->CompactAll().ok());
  EXPECT_EQ(overlay->TotalBytes(), bytes_before);  // compaction earns it back
}

TEST(VeBlockOverlay, RejectsRemoteSource) {
  Fixture f;
  auto overlay = f.BuildOverlay();
  const VertexRange other = f.partition.NodeRange(1);
  std::vector<EdgeDelta> deltas = {{other.begin, 0, 1.0f, false}};
  VeBlockOverlay::DegreeDeltaMap deg;
  EXPECT_FALSE(overlay->ApplyBatch(deltas, &deg).ok());
}

// ----------------------------------------------------------------- compaction

TEST(VeBlockOverlay, CompactionPreservesViewAndClearsBacklog) {
  Fixture f;
  auto overlay = f.BuildOverlay();
  for (uint64_t round = 0; round < 3; ++round) {
    EdgeBatch batch =
        MakeBatch(f.graph, f.partition, f.node, 12, 8, 200 + round);
    VeBlockOverlay::DegreeDeltaMap deg;
    ASSERT_TRUE(overlay->ApplyBatch(batch.deltas, &deg).ok());
    ApplyBatchToGraph(&f.graph, batch);
  }
  ASSERT_GT(overlay->DeltaRunCount(), 0u);
  ASSERT_TRUE(overlay->CompactAll().ok());
  EXPECT_EQ(overlay->DeltaRunCount(), 0u);
  EXPECT_EQ(overlay->DeltaBytes(), 0u);
  ExpectScansMatchCold(f, overlay.get());

  // Post-fold the byte totals match a cold build exactly: the overlay's
  // read amplification is fully earned back.
  MemStorage cold_storage;
  auto cold = f.ColdStore(&cold_storage);
  EXPECT_EQ(overlay->TotalBytes(), cold->TotalBytes());
  EXPECT_EQ(overlay->TotalEdgeBytes(), cold->TotalEdgeBytes());

  // No stale run blobs remain in storage.
  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "node%u/edelta/", f.node);
  EXPECT_TRUE(f.storage.ListKeys(prefix).empty());
}

TEST(VeBlockOverlay, CompactedBlobsMatchColdBuildByteForByte) {
  // After ingest and a full fold, every base Eblock and inner sidecar the
  // overlay stores is byte-identical to a cold VeBlockStore::Build over the
  // mutated graph, and so is every index entry describing them.
  Fixture f;
  auto overlay = f.BuildOverlay();
  for (uint64_t round = 0; round < 3; ++round) {
    EdgeBatch batch =
        MakeBatch(f.graph, f.partition, f.node, 14, 9, 900 + round);
    // An insert then a delete of the same edge in one batch nets to nothing.
    const VertexId src = f.partition.NodeRange(f.node).begin +
                         static_cast<VertexId>(round);
    batch.deltas.push_back({src, 7, 2.0f, false});
    batch.deltas.push_back({src, 7, 0.0f, true});
    VeBlockOverlay::DegreeDeltaMap deg, in_deg;
    ASSERT_TRUE(overlay->ApplyBatch(batch.deltas, &deg, &in_deg).ok());
    ApplyBatchToGraph(&f.graph, batch);
  }
  ASSERT_TRUE(overlay->CompactAll().ok());
  MemStorage cold_storage;
  auto cold = f.ColdStore(&cold_storage);
  for (const char* kind : {"eblock", "einner"}) {
    char prefix[64];
    std::snprintf(prefix, sizeof(prefix), "node%u/%s/", f.node, kind);
    std::vector<std::string> got_keys = f.storage.ListKeys(prefix);
    std::vector<std::string> want_keys = cold_storage.ListKeys(prefix);
    std::sort(got_keys.begin(), got_keys.end());
    std::sort(want_keys.begin(), want_keys.end());
    ASSERT_EQ(got_keys, want_keys);
    for (const std::string& key : want_keys) {
      auto got = f.storage.Read(key, {.metering = false});
      auto want = cold_storage.Read(key, {.metering = false});
      ASSERT_TRUE(got.ok() && want.ok()) << key;
      EXPECT_TRUE(Slice(got->data) == Slice(want->data)) << key;
    }
  }
  const uint32_t first_vb = f.partition.FirstVblockOf(f.node);
  const uint32_t last_vb = first_vb + f.partition.NumVblocksOf(f.node);
  for (uint32_t s = first_vb; s < last_vb; ++s) {
    for (uint32_t d = 0; d < f.partition.num_vblocks(); ++d) {
      EXPECT_EQ(overlay->Index(s, d).num_fragments,
                cold->Index(s, d).num_fragments);
      EXPECT_EQ(overlay->Index(s, d).num_edges, cold->Index(s, d).num_edges);
      EXPECT_EQ(overlay->Index(s, d).aux_bytes, cold->Index(s, d).aux_bytes);
      EXPECT_EQ(overlay->Index(s, d).edge_bytes, cold->Index(s, d).edge_bytes);
    }
    EXPECT_EQ(overlay->InnerIndex(s).aux_bytes, cold->InnerIndex(s).aux_bytes);
    EXPECT_EQ(overlay->InnerIndex(s).edge_bytes,
              cold->InnerIndex(s).edge_bytes);
  }
}

TEST(VeBlockOverlay, MutateAfterCompactionStillMatches) {
  Fixture f;
  auto overlay = f.BuildOverlay();
  EdgeBatch b1 = MakeBatch(f.graph, f.partition, f.node, 10, 5, 301);
  VeBlockOverlay::DegreeDeltaMap deg;
  ASSERT_TRUE(overlay->ApplyBatch(b1.deltas, &deg).ok());
  ApplyBatchToGraph(&f.graph, b1);
  ASSERT_TRUE(overlay->CompactAll().ok());
  // New runs over the folded base (BaseIndexOf must track the rewrite).
  EdgeBatch b2 = MakeBatch(f.graph, f.partition, f.node, 10, 5, 302);
  ASSERT_TRUE(overlay->ApplyBatch(b2.deltas, &deg).ok());
  ApplyBatchToGraph(&f.graph, b2);
  ExpectScansMatchCold(f, overlay.get());
  ASSERT_TRUE(overlay->CompactAll().ok());
  ExpectScansMatchCold(f, overlay.get());
}

// ----------------------------------------------------------------- fail-point

TEST(VeBlockOverlay, CompactErrorFailPointLeavesOverlayConsistent) {
  Fixture f;
  auto overlay = f.BuildOverlay();
  EdgeBatch batch = MakeBatch(f.graph, f.partition, f.node, 20, 10, 401);
  VeBlockOverlay::DegreeDeltaMap deg;
  ASSERT_TRUE(overlay->ApplyBatch(batch.deltas, &deg).ok());
  ApplyBatchToGraph(&f.graph, batch);
  const uint64_t runs_before = overlay->DeltaRunCount();
  {
    FailPointScope fp("overlay.compact=error:max=1");
    EXPECT_FALSE(overlay->CompactAll().ok());
  }
  // Entry-site failure: nothing folded, merged view intact.
  EXPECT_EQ(overlay->DeltaRunCount(), runs_before);
  ExpectScansMatchCold(f, overlay.get());
  ASSERT_TRUE(overlay->CompactAll().ok());
  ExpectScansMatchCold(f, overlay.get());
}

TEST(VeBlockOverlay, CompactDelayFailPointStillSucceeds) {
  Fixture f;
  auto overlay = f.BuildOverlay();
  EdgeBatch batch = MakeBatch(f.graph, f.partition, f.node, 10, 0, 402);
  VeBlockOverlay::DegreeDeltaMap deg;
  ASSERT_TRUE(overlay->ApplyBatch(batch.deltas, &deg).ok());
  ApplyBatchToGraph(&f.graph, batch);
  FailPointScope fp("overlay.compact=delay:us=100");
  ASSERT_TRUE(overlay->CompactAll().ok());
  EXPECT_EQ(overlay->DeltaRunCount(), 0u);
  ExpectScansMatchCold(f, overlay.get());
}

TEST(VeBlockOverlay, TornCompactionIsRepairedByRecover) {
  Fixture f;
  auto overlay = f.BuildOverlay();
  EdgeBatch batch = MakeBatch(f.graph, f.partition, f.node, 25, 10, 403);
  VeBlockOverlay::DegreeDeltaMap deg;
  ASSERT_TRUE(overlay->ApplyBatch(batch.deltas, &deg).ok());
  ApplyBatchToGraph(&f.graph, batch);
  ASSERT_GT(overlay->DeltaRunCount(), 0u);

  // crash:after=1 lets the entry site pass and fires in the torn window of
  // the FIRST compacted cell: base rewritten + watermark persisted, but the
  // folded runs still sit in storage.
  uint64_t fires;
  {
    FailPointScope fp("overlay.compact=crash:after=1");
    EXPECT_FALSE(overlay->CompactAll().ok());
    fires = FailPointRegistry::Instance().fires("overlay.compact");
  }
  ASSERT_GE(fires, 1u);

  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "node%u/edelta/", f.node);
  const size_t stale = f.storage.ListKeys(prefix).size();
  ASSERT_GT(stale, 0u);

  // Recovery sweeps every run at or below its cell's persisted watermark and
  // reconciles the in-memory run list; the merged view is the mutated graph.
  ASSERT_TRUE(overlay->RecoverCompaction().ok());
  EXPECT_LT(f.storage.ListKeys(prefix).size(), stale);
  ExpectScansMatchCold(f, overlay.get());

  // A rerun finishes the job.
  ASSERT_TRUE(overlay->CompactAll().ok());
  EXPECT_EQ(overlay->DeltaRunCount(), 0u);
  EXPECT_TRUE(f.storage.ListKeys(prefix).empty());
  ExpectScansMatchCold(f, overlay.get());
}

// ------------------------------------------------------------------- prefetch

TEST(VeBlockOverlay, ScanThroughPipelineAfterCompactionSeesFreshBase) {
  Fixture f;
  auto overlay = f.BuildOverlay();
  ThreadPool pool(2);
  ReadPipeline pipe(&f.storage, &pool, /*depth=*/8, /*budget_bytes=*/1 << 20);

  EdgeBatch batch = MakeBatch(f.graph, f.partition, f.node, 20, 8, 501);
  VeBlockOverlay::DegreeDeltaMap deg;
  ASSERT_TRUE(overlay->ApplyBatch(batch.deltas, &deg).ok());
  ApplyBatchToGraph(&f.graph, batch);

  // Stage readahead of every cell, then compact (which REWRITES the base
  // blobs under their keys). The storage mutation observer must invalidate
  // the staged reads so the pipeline never serves the pre-fold bytes.
  const uint32_t first_vb = f.partition.FirstVblockOf(f.node);
  for (uint32_t s = first_vb; s < first_vb + f.partition.NumVblocksOf(f.node);
       ++s) {
    for (uint32_t d = 0; d < f.partition.num_vblocks(); ++d) {
      overlay->PrefetchEblock(s, d, &pipe);
    }
  }
  ASSERT_TRUE(overlay->CompactAll().ok());
  MemStorage cold_storage;
  auto cold = f.ColdStore(&cold_storage);
  for (uint32_t s = first_vb; s < first_vb + f.partition.NumVblocksOf(f.node);
       ++s) {
    for (uint32_t d = 0; d < f.partition.num_vblocks(); ++d) {
      ScanResult got, want;
      ASSERT_TRUE(overlay->ScanEblock(s, d, &got, &pipe).ok());
      ASSERT_TRUE(cold->ScanEblock(s, d, &want).ok());
      const std::vector<WalkedRun> got_runs = RunsOf(got);
      const std::vector<WalkedRun> want_runs = RunsOf(want);
      ASSERT_EQ(got_runs.size(), want_runs.size());
      for (size_t i = 0; i < got_runs.size(); ++i) {
        ASSERT_EQ(got_runs[i].edges.size(), want_runs[i].edges.size());
      }
    }
  }
}

}  // namespace
}  // namespace hybridgraph
