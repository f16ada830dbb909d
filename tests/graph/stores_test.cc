// Tests for the three disk layouts: VertexValueStore (Vblocks),
// AdjacencyStore (push-side edges), VeBlockStore (Eblocks + fragments),
// including the Theorem-1 property (fragments grow with the Vblock count).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "graph/adjacency_store.h"
#include "graph/edge_runs.h"
#include "graph/generator.h"
#include "graph/ve_block_store.h"
#include "graph/vertex_store.h"
#include "util/codec.h"
#include "util/rng.h"

namespace hybridgraph {
namespace {

/// One walked run, copied out for comparison.
struct WalkedRun {
  VertexId src;
  std::vector<Edge> edges;
};

/// Collects every run `runs` yields; the walk's status comes back.
Status Collect(EdgeRunWalker runs, std::vector<WalkedRun>* out) {
  out->clear();
  for (EdgeRun run; runs.Next(&run);) {
    out->push_back({run.src, {}});
    for (const Edge e : run.edges) out->back().edges.push_back(e);
  }
  return runs.status();
}

/// Walks a fragment blob whose runs may name any vertex.
Status WalkFragments(Slice blob, std::vector<WalkedRun>* out) {
  const VertexRange any{0, UINT32_MAX};
  return Collect(EdgeRunWalker::Fragments(blob, any, any), out);
}

/// The runs of a scan, which must walk cleanly.
std::vector<WalkedRun> RunsOf(const VeBlockStore::ScanResult& scan) {
  std::vector<WalkedRun> runs;
  EXPECT_TRUE(Collect(scan.Walk(), &runs).ok());
  return runs;
}

struct Fixture {
  EdgeListGraph graph;
  RangePartition partition;
  MemStorage storage;
  std::vector<uint32_t> out_degrees;
  std::vector<uint32_t> in_degrees;
  std::vector<RawEdge> local_edges;  // node 0
  NodeId node = 0;

  explicit Fixture(uint32_t vblocks_per_node = 3, uint32_t nodes = 2,
                   uint64_t n = 100) {
    graph = GeneratePowerLaw(n, 6.0, 0.7, 11);
    partition =
        RangePartition::CreateUniform(n, nodes, vblocks_per_node).ValueOrDie();
    out_degrees = graph.OutDegrees();
    in_degrees = graph.InDegrees();
    for (const auto& e : graph.edges) {
      if (partition.NodeOf(e.src) == node) local_edges.push_back(e);
    }
  }
};

// ------------------------------------------------------------- VertexValueStore

TEST(VertexValueStore, BuildReadWriteRoundTrip) {
  Fixture f;
  auto store = VertexValueStore::Build(
                   &f.storage, f.partition, f.node, sizeof(double),
                   f.out_degrees,
                   [](VertexId v, uint8_t* out) {
                     const double val = v * 1.5;
                     std::memcpy(out, &val, sizeof(val));
                   })
                   .ValueOrDie();
  EXPECT_EQ(store->value_size(), sizeof(double));
  EXPECT_EQ(store->record_size(), 8 + sizeof(double));

  const uint32_t vb = f.partition.FirstVblockOf(f.node);
  std::vector<uint8_t> values;
  ASSERT_TRUE(store->ReadBlock(vb, &values, IoClass::kSeqRead).ok());
  const VertexRange r = f.partition.VblockRange(vb);
  ASSERT_EQ(values.size(), r.size() * sizeof(double));
  double first;
  std::memcpy(&first, values.data(), sizeof(first));
  EXPECT_DOUBLE_EQ(first, r.begin * 1.5);

  // Mutate and write back.
  const double updated = 99.5;
  std::memcpy(values.data(), &updated, sizeof(updated));
  ASSERT_TRUE(store->WriteBlock(vb, values, IoClass::kSeqWrite).ok());
  std::vector<uint8_t> again;
  ASSERT_TRUE(store->ReadBlock(vb, &again, IoClass::kSeqRead).ok());
  double got;
  std::memcpy(&got, again.data(), sizeof(got));
  EXPECT_DOUBLE_EQ(got, 99.5);
}

TEST(VertexValueStore, RandomReadMatchesBlockRead) {
  Fixture f;
  auto store = VertexValueStore::Build(
                   &f.storage, f.partition, f.node, sizeof(uint32_t),
                   f.out_degrees,
                   [](VertexId v, uint8_t* out) {
                     const uint32_t val = v * 7;
                     std::memcpy(out, &val, sizeof(val));
                   })
                   .ValueOrDie();
  const DiskMeter before = *f.storage.meter();
  uint64_t charged = 0;
  for (uint32_t vb = f.partition.FirstVblockOf(f.node);
       vb < f.partition.LastVblockOf(f.node); ++vb) {
    const VertexRange r = f.partition.VblockRange(vb);
    for (VertexId first = r.begin; first < r.end; first += 13) {
      const VertexId last = std::min<VertexId>(first + 5, r.end - 1);
      std::vector<uint8_t> records;
      ASSERT_TRUE(store->ReadRecordSpan(first, last, 2, &records).ok());
      charged += 2;
      ASSERT_EQ(records.size(), (last - first + 1) * store->record_size());
      for (VertexId v = first; v <= last; ++v) {
        uint32_t id, got;
        const uint8_t* rec =
            records.data() + (v - first) * store->record_size();
        std::memcpy(&id, rec, sizeof(id));
        std::memcpy(&got, rec + 8, sizeof(got));
        EXPECT_EQ(id, v);
        EXPECT_EQ(got, v * 7);
      }
    }
  }
  // Each span is one unmetered read charged as the requested count of
  // single-record random reads.
  const DiskMeter delta = f.storage.meter()->DeltaSince(before);
  EXPECT_EQ(delta.ops(IoClass::kRandRead), charged);
  EXPECT_EQ(delta.bytes(IoClass::kRandRead) +
                delta.cached_bytes(IoClass::kRandRead),
            charged * store->record_size());
  EXPECT_EQ(delta.ops(IoClass::kSeqRead), 0u);
}

TEST(VertexValueStore, OutDegreeLookup) {
  Fixture f;
  auto store = VertexValueStore::Build(&f.storage, f.partition, f.node, 4,
                                       f.out_degrees,
                                       [](VertexId, uint8_t* out) {
                                         std::memset(out, 0, 4);
                                       })
                   .ValueOrDie();
  const VertexRange nr = f.partition.NodeRange(f.node);
  for (VertexId v = nr.begin; v < nr.end; ++v) {
    EXPECT_EQ(store->OutDegree(v), f.out_degrees[v]);
  }
}

TEST(VertexValueStore, NonLocalRandomReadFails) {
  Fixture f;
  auto store = VertexValueStore::Build(&f.storage, f.partition, f.node, 4,
                                       f.out_degrees,
                                       [](VertexId, uint8_t* out) {
                                         std::memset(out, 0, 4);
                                       })
                   .ValueOrDie();
  std::vector<uint8_t> records;
  const VertexId remote = f.partition.NodeRange(1).begin;
  EXPECT_FALSE(store->ReadRecordSpan(remote, remote, 1, &records).ok());
  // A span crossing into the node's second Vblock is rejected too.
  const VertexRange r =
      f.partition.VblockRange(f.partition.FirstVblockOf(f.node));
  EXPECT_FALSE(store->ReadRecordSpan(r.begin, r.end, 1, &records).ok());
}

// --------------------------------------------------------------- AdjacencyStore

TEST(AdjacencyStore, BlocksContainAllLocalEdges) {
  Fixture f;
  auto store =
      AdjacencyStore::Build(&f.storage, f.partition, f.node, f.local_edges)
          .ValueOrDie();
  EXPECT_EQ(store->TotalEdges(), f.local_edges.size());

  uint64_t seen_edges = 0;
  for (uint32_t vb = f.partition.FirstVblockOf(f.node);
       vb < f.partition.LastVblockOf(f.node); ++vb) {
    std::vector<uint8_t> block;
    ASSERT_TRUE(store->ReadBlock(vb, &block).ok());
    std::vector<WalkedRun> adj;
    ASSERT_TRUE(Collect(store->Walk(vb, Slice(block)), &adj).ok());
    const VertexRange r = f.partition.VblockRange(vb);
    ASSERT_EQ(adj.size(), r.size());
    for (uint32_t i = 0; i < adj.size(); ++i) {
      EXPECT_EQ(adj[i].src, r.begin + i);
      EXPECT_EQ(adj[i].edges.size(), f.out_degrees[adj[i].src]);
      seen_edges += adj[i].edges.size();
    }
    EXPECT_EQ(store->BlockEdges(vb),
              [&] {
                uint64_t c = 0;
                for (const auto& va : adj) c += va.edges.size();
                return c;
              }());
  }
  EXPECT_EQ(seen_edges, f.local_edges.size());
}

TEST(AdjacencyStore, ApplyBatchBlocksMatchColdBuildByteForByte) {
  // Read-modify-write ingest must leave every block byte-identical to a
  // cold Build over ApplyBatchToGraph's graph: inserts append, deletes drop
  // every match, an insert then a delete of one edge in one batch nets to
  // nothing, and a vertex whose list empties keeps its (empty) record.
  Fixture f;
  auto store =
      AdjacencyStore::Build(&f.storage, f.partition, f.node, f.local_edges)
          .ValueOrDie();
  const VertexRange nr = f.partition.NodeRange(f.node);
  const auto local_of = [&] {
    std::vector<RawEdge> local;
    for (const auto& e : f.graph.edges) {
      if (f.partition.NodeOf(e.src) == f.node) local.push_back(e);
    }
    return local;
  };
  Rng rng(41);
  for (int round = 0; round < 3; ++round) {
    const std::vector<RawEdge> local = local_of();
    EdgeBatch batch;
    for (int i = 0; i < 12; ++i) {
      const VertexId src = nr.begin + static_cast<VertexId>(rng.Next() % nr.size());
      const VertexId dst =
          static_cast<VertexId>(rng.Next() % f.graph.num_vertices);
      batch.deltas.push_back({src, dst, 1.0f + static_cast<float>(i), false});
      if (i % 4 == 0) batch.deltas.push_back({src, dst, 0.0f, true});
    }
    for (int i = 0; i < 6; ++i) {
      const RawEdge& e = local[rng.Next() % local.size()];
      batch.deltas.push_back({e.src, e.dst, 0.0f, true});
      if (i % 2 == 0) batch.deltas.push_back({e.src, e.dst, 3.0f, false});
    }
    // Wipe every out-edge of one vertex.
    const VertexId wiped = local[rng.Next() % local.size()].src;
    for (const RawEdge& e : local) {
      if (e.src == wiped) batch.deltas.push_back({e.src, e.dst, 0.0f, true});
    }
    DegreeDeltaMap deg;
    ASSERT_TRUE(store->ApplyBatch(batch.deltas, &deg).ok());
    ApplyBatchToGraph(&f.graph, batch);
  }
  MemStorage cold_storage;
  const std::vector<RawEdge> local = local_of();
  auto cold = AdjacencyStore::Build(&cold_storage, f.partition, f.node, local)
                  .ValueOrDie();
  EXPECT_EQ(store->TotalEdges(), local.size());
  for (uint32_t vb = f.partition.FirstVblockOf(f.node);
       vb < f.partition.LastVblockOf(f.node); ++vb) {
    char key[64];
    std::snprintf(key, sizeof(key), "node%u/adj/%06u", f.node, vb);
    auto got = f.storage.Read(key, {.metering = false});
    auto want = cold_storage.Read(key, {.metering = false});
    ASSERT_TRUE(got.ok() && want.ok()) << key;
    EXPECT_TRUE(Slice(got->data) == Slice(want->data)) << key;
    EXPECT_EQ(store->BlockBytes(vb), cold->BlockBytes(vb)) << key;
    EXPECT_EQ(store->BlockEdges(vb), cold->BlockEdges(vb)) << key;
  }
}

TEST(AdjacencyStore, RejectsForeignEdges) {
  Fixture f;
  std::vector<RawEdge> bad = {{f.partition.NodeRange(1).begin, 0, 1.0f}};
  EXPECT_FALSE(
      AdjacencyStore::Build(&f.storage, f.partition, f.node, bad).ok());
}

/// Builds node 0's adjacency store, lets `corrupt` rewrite the bytes of its
/// first block, and expects walking the stored block to be Corruption.
template <typename Corrupt>
void ExpectCorruptBlockRejected(Corrupt corrupt) {
  Fixture f;
  auto store =
      AdjacencyStore::Build(&f.storage, f.partition, f.node, f.local_edges)
          .ValueOrDie();
  const uint32_t vb = f.partition.FirstVblockOf(f.node);
  std::vector<uint8_t> block;
  ASSERT_TRUE(store->ReadBlock(vb, &block).ok());
  ASSERT_TRUE(store->Walk(vb, Slice(block)).status().ok());
  corrupt(f, &block);
  char key[64];
  std::snprintf(key, sizeof(key), "node%u/adj/%06u", f.node, vb);
  ASSERT_TRUE(
      f.storage.Write(key, Slice(block), IoClass::kSeqWrite).ok());
  ASSERT_TRUE(store->ReadBlock(vb, &block).ok());
  std::vector<WalkedRun> runs;
  EXPECT_EQ(Collect(store->Walk(vb, Slice(block)), &runs).code(),
            StatusCode::kCorruption);
}

TEST(AdjacencyStore, FlippedVertexIdIsCorruption) {
  // The first record claims vertex 0x7f000000 in a Vblock starting at 0:
  // it would index the responding flags and the degree table out of bounds.
  ExpectCorruptBlockRejected([](Fixture&, std::vector<uint8_t>* block) {
    (*block)[3] = 0x7f;
  });
}

TEST(AdjacencyStore, DestinationEqualToVertexCountIsCorruption) {
  // An edge to |V| would make NodeOf return the node count, an index past
  // the staging slots.
  ExpectCorruptBlockRejected([](Fixture& f, std::vector<uint8_t>* block) {
    // The first vertex with an out-edge: its first dst follows the header.
    size_t pos = 0;
    for (VertexId v = 0;; ++v) {
      const uint8_t n = (*block)[pos + 4];
      ASSERT_LT(n, 0x80) << "test assumes one-byte counts";
      if (n > 0) break;
      pos += 5;
      ASSERT_LT(v, 1000u);
    }
    EncodeFixed<uint32_t>(block->data() + pos + 5,
                          static_cast<uint32_t>(f.graph.num_vertices));
  });
}

// ---------------------------------------------------------------- VeBlockStore

TEST(VeBlockStore, FragmentsCoverAllEdgesExactlyOnce) {
  Fixture f;
  auto store = VeBlockStore::Build(&f.storage, f.partition, f.node,
                                   f.local_edges, f.in_degrees)
                   .ValueOrDie();
  uint64_t covered = 0;
  for (uint32_t svb = f.partition.FirstVblockOf(f.node);
       svb < f.partition.LastVblockOf(f.node); ++svb) {
    for (uint32_t dvb = 0; dvb < f.partition.num_vblocks(); ++dvb) {
      VeBlockStore::ScanResult scan;
      ASSERT_TRUE(store->ScanEblock(svb, dvb, &scan).ok());
      const std::vector<WalkedRun> fragments = RunsOf(scan);
      EXPECT_EQ(fragments.empty(), !store->HasEdges(svb, dvb));
      for (const auto& frag : fragments) {
        EXPECT_TRUE(f.partition.VblockRange(svb).Contains(frag.src));
        EXPECT_FALSE(frag.edges.empty());
        for (const auto& e : frag.edges) {
          EXPECT_EQ(f.partition.VblockOf(e.dst), dvb);
          ++covered;
        }
      }
      EXPECT_EQ(store->Index(svb, dvb).num_fragments, fragments.size());
      EXPECT_EQ(store->Index(svb, dvb).edge_bytes, scan.edge_bytes);
      EXPECT_EQ(store->Index(svb, dvb).aux_bytes, scan.aux_bytes);
    }
  }
  EXPECT_EQ(covered, f.local_edges.size());
}

TEST(VeBlockStore, FragmentsClusterPerSource) {
  Fixture f;
  auto store = VeBlockStore::Build(&f.storage, f.partition, f.node,
                                   f.local_edges, f.in_degrees)
                   .ValueOrDie();
  for (uint32_t svb = f.partition.FirstVblockOf(f.node);
       svb < f.partition.LastVblockOf(f.node); ++svb) {
    for (uint32_t dvb = 0; dvb < f.partition.num_vblocks(); ++dvb) {
      VeBlockStore::ScanResult scan;
      ASSERT_TRUE(store->ScanEblock(svb, dvb, &scan).ok());
      // At most one fragment per source vertex in one Eblock.
      std::set<VertexId> sources;
      for (const auto& frag : RunsOf(scan)) {
        EXPECT_TRUE(sources.insert(frag.src).second);
      }
    }
  }
}

TEST(VeBlockStore, MetadataDegreesMatchGraph) {
  Fixture f;
  auto store = VeBlockStore::Build(&f.storage, f.partition, f.node,
                                   f.local_edges, f.in_degrees)
                   .ValueOrDie();
  for (uint32_t vb = f.partition.FirstVblockOf(f.node);
       vb < f.partition.LastVblockOf(f.node); ++vb) {
    const VblockMeta& meta = store->Meta(vb);
    const VertexRange r = f.partition.VblockRange(vb);
    EXPECT_EQ(meta.num_vertices, r.size());
    uint64_t ind = 0, outd = 0;
    for (VertexId v = r.begin; v < r.end; ++v) {
      ind += f.in_degrees[v];
      outd += f.out_degrees[v];
    }
    EXPECT_EQ(meta.in_degree, ind);
    EXPECT_EQ(meta.out_degree, outd);
    // Bitmap is consistent with the index.
    for (uint32_t dvb = 0; dvb < f.partition.num_vblocks(); ++dvb) {
      EXPECT_EQ(meta.edge_bitmap[dvb],
                store->Index(vb, dvb).num_fragments > 0);
    }
  }
}

TEST(VeBlockStore, BlobsMatchSortedReferenceEncoding) {
  // The flat counting-sort build must write exactly the blobs of the sorted
  // (dst Vblock, src) bucketing: fragments ascending by source, each
  // source's edges in input order (duplicates and shuffled input included).
  Fixture f;
  std::vector<RawEdge> edges = f.local_edges;
  std::reverse(edges.begin(), edges.end());
  edges.push_back(edges.front());  // a duplicate edge keeps its position
  MemStorage storage;
  auto store = VeBlockStore::Build(&storage, f.partition, f.node, edges,
                                   f.in_degrees)
                   .ValueOrDie();
  std::map<std::pair<uint32_t, uint32_t>,
           std::map<VertexId, std::vector<RawEdge>>>
      cells;
  for (const RawEdge& e : edges) {
    cells[{f.partition.VblockOf(e.src), f.partition.VblockOf(e.dst)}][e.src]
        .push_back(e);
  }
  uint64_t fragments = 0;
  for (const auto& [cell, by_src] : cells) {
    Buffer want;
    Encoder enc(&want);
    enc.PutVarint64(by_src.size());
    for (const auto& [src, list] : by_src) {
      enc.PutFixed32(src);
      enc.PutVarint64(list.size());
      for (const RawEdge& e : list) {
        enc.PutFixed32(e.dst);
        enc.PutFloat(e.weight);
      }
    }
    fragments += by_src.size();
    char key[64];
    std::snprintf(key, sizeof(key), "node%u/eblock/%06u/%06u", f.node,
                  cell.first, cell.second);
    auto got = storage.Read(key, {.metering = false});
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_TRUE(Slice(got->data) == want.AsSlice()) << key;
    if (cell.first == cell.second) {
      std::snprintf(key, sizeof(key), "node%u/einner/%06u", f.node,
                    cell.first);
      auto inner = storage.Read(key, {.metering = false});
      ASSERT_TRUE(inner.ok()) << key;
      EXPECT_TRUE(Slice(inner->data) == want.AsSlice()) << key;
    }
  }
  EXPECT_EQ(store->TotalFragments(), fragments);
  EXPECT_EQ(storage.ListKeys("node0/eblock/").size(), cells.size());
}

TEST(VeBlockStoreCorruption, TruncatedAndBitFlippedBlobsAreCorruption) {
  // Every strict prefix of a valid fragment blob is Corruption (never an
  // allocation failure), and every single-bit flip either walks or is
  // Corruption. A second walk of the same bytes must equal the first.
  Fixture f;
  auto store = VeBlockStore::Build(&f.storage, f.partition, f.node,
                                   f.local_edges, f.in_degrees)
                   .ValueOrDie();
  std::vector<WalkedRun> reused;
  for (const std::string& key : f.storage.ListKeys("node0/eblock/")) {
    auto read = f.storage.Read(key, {.metering = false});
    ASSERT_TRUE(read.ok());
    const std::vector<uint8_t>& blob = read->data;
    std::vector<WalkedRun> fresh;
    ASSERT_TRUE(WalkFragments(Slice(blob), &fresh).ok());
    ASSERT_TRUE(WalkFragments(Slice(blob), &reused).ok());
    ASSERT_EQ(reused.size(), fresh.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(reused[i].src, fresh[i].src);
      ASSERT_EQ(reused[i].edges.size(), fresh[i].edges.size());
    }
    for (size_t cut = 0; cut < blob.size(); ++cut) {
      std::vector<WalkedRun> out;
      EXPECT_EQ(WalkFragments(Slice(blob.data(), cut), &out).code(),
                StatusCode::kCorruption)
          << key << " cut=" << cut;
    }
    for (size_t byte = 0; byte < std::min<size_t>(blob.size(), 48); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<uint8_t> flipped = blob;
        flipped[byte] ^= static_cast<uint8_t>(1u << bit);
        const Status st = WalkFragments(Slice(flipped), &reused);
        EXPECT_TRUE(st.ok() || st.code() == StatusCode::kCorruption)
            << st.ToString();
      }
    }
  }
  // Oversized counts: fragments, then edges of one fragment.
  for (const bool edge_count : {false, true}) {
    Buffer buf;
    Encoder enc(&buf);
    if (edge_count) {
      enc.PutVarint64(1);
      enc.PutFixed32(3);
    }
    enc.PutVarint64(uint64_t{1} << 60);
    enc.PutFixed32(0);
    std::vector<WalkedRun> out;
    EXPECT_EQ(WalkFragments(buf.AsSlice(), &out).code(),
              StatusCode::kCorruption);
  }
  // A corrupt stored Eblock surfaces through the scan's walk as Corruption.
  const uint32_t vb = f.partition.FirstVblockOf(f.node);
  uint32_t dvb = 0;
  while (!store->HasEdges(vb, dvb)) ++dvb;
  char key[64];
  std::snprintf(key, sizeof(key), "node%u/eblock/%06u/%06u", f.node, vb, dvb);
  const uint8_t junk[] = {0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 2};
  ASSERT_TRUE(
      f.storage.Write(key, Slice(junk, sizeof(junk)), IoClass::kSeqWrite).ok());
  VeBlockStore::ScanResult scan;
  ASSERT_TRUE(store->ScanEblock(vb, dvb, &scan).ok());
  std::vector<WalkedRun> out;
  EXPECT_EQ(Collect(scan.Walk(), &out).code(), StatusCode::kCorruption);
}

// Theorem 1: the expected number of fragments grows with the Vblock count.
class Theorem1Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Theorem1Test, FragmentsMonotoneInVblockCount) {
  const auto graph = GeneratePowerLaw(400, 10.0, 0.8, GetParam(),
                                      /*locality=*/0.2);
  const auto in_degrees = graph.InDegrees();
  uint64_t prev_fragments = 0;
  for (uint32_t vblocks : {1u, 2u, 5u, 10u, 25u}) {
    auto partition = RangePartition::CreateUniform(400, 2, vblocks).ValueOrDie();
    std::vector<RawEdge> local;
    for (const auto& e : graph.edges) {
      if (partition.NodeOf(e.src) == 0) local.push_back(e);
    }
    MemStorage storage;
    auto store =
        VeBlockStore::Build(&storage, partition, 0, local, in_degrees)
            .ValueOrDie();
    EXPECT_GE(store->TotalFragments(), prev_fragments)
        << "V per node = " << vblocks;
    prev_fragments = store->TotalFragments();
  }
  // With many Vblocks there must be strictly more fragments than with one.
  EXPECT_GT(prev_fragments, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Test, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace hybridgraph
