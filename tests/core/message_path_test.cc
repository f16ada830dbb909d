// Strategy conformance: every MessagePath (push, pushM, b-pull, vpull,
// graphhp, the adaptive per-cell mix and the hybrid combination) must
// compute reference-identical results when driven through the same Engine
// fixture — the paths differ only in how messages move, never in what the
// program computes. Each conformance check runs fully sequential (1 thread)
// and parallel (8 threads).
#include "core/message_path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "algos/lpa.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "core/engine.h"
#include "core/paths/adaptive_path.h"
#include "core/paths/bpull_path.h"
#include "core/paths/ghp_path.h"
#include "core/paths/push_m_path.h"
#include "core/paths/push_path.h"
#include "core/paths/vpull_path.h"
#include "graph/generator.h"
#include "net/message_codec.h"
#include "util/record_slab.h"
#include "util/string_util.h"
#include "tests/core/reference_impls.h"

namespace hybridgraph {
namespace {

EdgeListGraph TestGraph(uint64_t seed = 11) {
  return GeneratePowerLaw(800, 7.0, 0.8, seed);
}

/// An Engine plus a raw handle on it, so tests can drive every mode's
/// paths through one shared fixture.
template <typename P>
struct DriverRig {
  std::unique_ptr<Engine<P>> engine;
  Engine<P>* driver = nullptr;

  Result<std::vector<typename P::Value>> Gather() {
    return engine->GatherValues();
  }
};

template <typename P>
DriverRig<P> MakeRig(const JobConfig& cfg, P program) {
  DriverRig<P> rig;
  rig.engine = std::make_unique<Engine<P>>(cfg, program);
  rig.driver = rig.engine.get();
  return rig;
}

JobConfig BaseConfig(EngineMode mode, uint32_t threads) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 4;
  cfg.num_threads = threads;
  cfg.msg_buffer_per_node = 120;  // forces spilling under push
  cfg.max_supersteps = 50;
  return cfg;
}

constexpr EngineMode kAllModes[] = {
    EngineMode::kPush,   EngineMode::kPushM,    EngineMode::kVPull,
    EngineMode::kBPull,  EngineMode::kHybrid,   EngineMode::kAdaptive,
    EngineMode::kGraphHp};

class MessagePathConformance : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MessagePathConformance, PageRankMatchesReference) {
  const auto g = TestGraph();
  constexpr int kSteps = 6;
  const auto expected = ReferencePageRank(g, kSteps);
  for (EngineMode mode : kAllModes) {
    JobConfig cfg = BaseConfig(mode, GetParam());
    cfg.max_supersteps = kSteps;
    auto rig = MakeRig(cfg, PageRankProgram{});
    ASSERT_TRUE(rig.driver->Load(g).ok()) << EngineModeName(mode);
    ASSERT_TRUE(rig.driver->Run().ok()) << EngineModeName(mode);
    const auto got = rig.Gather().ValueOrDie();
    ASSERT_EQ(got.size(), expected.size());
    for (size_t v = 0; v < got.size(); ++v) {
      ASSERT_NEAR(got[v], expected[v], 1e-12)
          << "mode=" << EngineModeName(mode) << " v=" << v;
    }
  }
}

TEST_P(MessagePathConformance, SsspMatchesBellmanFord) {
  const auto g = TestGraph();
  SsspProgram program;
  program.source = 17;
  const auto expected = ReferenceSssp(g, program.source);
  for (EngineMode mode : kAllModes) {
    JobConfig cfg = BaseConfig(mode, GetParam());
    cfg.max_supersteps = 200;
    auto rig = MakeRig(cfg, program);
    ASSERT_TRUE(rig.driver->Load(g).ok()) << EngineModeName(mode);
    ASSERT_TRUE(rig.driver->Run().ok()) << EngineModeName(mode);
    EXPECT_TRUE(rig.driver->converged()) << EngineModeName(mode);
    const auto got = rig.Gather().ValueOrDie();
    ASSERT_EQ(got.size(), expected.size());
    for (size_t v = 0; v < got.size(); ++v) {
      ASSERT_FLOAT_EQ(got[v], expected[v])
          << "mode=" << EngineModeName(mode) << " v=" << v;
    }
  }
}

TEST_P(MessagePathConformance, WccMatchesMinLabelFlood) {
  const auto g = TestGraph(23);
  const auto expected = ReferenceMinLabel(g);
  for (EngineMode mode : kAllModes) {
    JobConfig cfg = BaseConfig(mode, GetParam());
    cfg.max_supersteps = 200;
    auto rig = MakeRig(cfg, WccProgram{});
    ASSERT_TRUE(rig.driver->Load(g).ok()) << EngineModeName(mode);
    ASSERT_TRUE(rig.driver->Run().ok()) << EngineModeName(mode);
    EXPECT_TRUE(rig.driver->converged()) << EngineModeName(mode);
    const auto got = rig.Gather().ValueOrDie();
    EXPECT_EQ(got, expected) << EngineModeName(mode);
  }
}

TEST_P(MessagePathConformance, MetricsTagTheProducingPath) {
  // Every superstep record must carry the mode of the path that produced it,
  // and single-mode runs must never report another path's mode.
  const auto g = TestGraph();
  for (EngineMode mode : {EngineMode::kPush, EngineMode::kPushM,
                          EngineMode::kVPull, EngineMode::kBPull,
                          EngineMode::kAdaptive, EngineMode::kGraphHp}) {
    JobConfig cfg = BaseConfig(mode, GetParam());
    cfg.max_supersteps = 5;
    auto rig = MakeRig(cfg, PageRankProgram{});
    ASSERT_TRUE(rig.driver->Load(g).ok()) << EngineModeName(mode);
    ASSERT_TRUE(rig.driver->Run().ok()) << EngineModeName(mode);
    ASSERT_FALSE(rig.driver->stats().supersteps.empty());
    for (const auto& s : rig.driver->stats().supersteps) {
      EXPECT_EQ(s.mode, mode) << EngineModeName(mode) << " superstep "
                              << s.superstep;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, MessagePathConformance,
                         ::testing::Values(1u, 8u),
                         [](const auto& info) {
                           return StringFormat("t%u", info.param);
                         });

TEST(MessagePathCapabilities, PathsDeclareTheirNeeds) {
  JobConfig cfg = BaseConfig(EngineMode::kHybrid, 1);
  Engine<PageRankProgram> driver(cfg, PageRankProgram{});
  PushPath<PageRankProgram> push(&driver);
  PushMPath<PageRankProgram> pushm(&driver);
  BPullPath<PageRankProgram> bpull(&driver);
  VPullPath<PageRankProgram> vpull(&driver);
  AdaptivePath<PageRankProgram> adaptive(&driver);
  GhpPath<PageRankProgram> ghp(&driver);

  // One row per path: its registry mode and its full capability set.
  //   - Push family: adjacency walk plus hot-vertex mirroring.
  //   - b-pull: the VE-BLOCK layout; the only plain pull server.
  //   - vpull: owns its vertex-cut storage, no aggregator, no Q_t metrics.
  //   - adaptive: both layouts (push cells walk adjacency, pull cells serve
  //     Eblocks), answers pulls itself; per-cell mixing makes the
  //     single-direction Q_t metric inapplicable.
  //   - graphhp: push wire protocol plus the boundary/inner split.
  struct Row {
    const MessagePath<PageRankProgram>* path;
    EngineMode mode;
    PathCaps caps;
  };
  const PathCaps kPushCaps{.needs_adjacency = true,
                           .mirrors_hot_vertices = true};
  const Row rows[] = {
      {&push, EngineMode::kPush, kPushCaps},
      {&pushm, EngineMode::kPushM, kPushCaps},
      {&bpull, EngineMode::kBPull,
       {.needs_veblocks = true, .serves_pulls = true}},
      {&vpull, EngineMode::kVPull,
       {.supports_aggregator = false, .hybrid_metrics = false}},
      {&adaptive, EngineMode::kAdaptive,
       {.needs_adjacency = true,
        .needs_veblocks = true,
        .hybrid_metrics = false,
        .serves_pulls = true,
        .mirrors_hot_vertices = true}},
      {&ghp, EngineMode::kGraphHp,
       {.needs_adjacency = true,
        .needs_veblocks = true,
        .mirrors_hot_vertices = true}},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(row.path->mode(), row.mode);
    EXPECT_TRUE(row.path->caps() == row.caps) << EngineModeName(row.mode);
  }
}

TEST(MessagePathCapabilities, ServePullOnlyOnPullPaths) {
  // The engine routes kPullRequest only to a pull-serving producer; a path
  // that does not serve pulls must say so rather than silently answer.
  JobConfig cfg = BaseConfig(EngineMode::kPush, 1);
  Engine<PageRankProgram> driver(cfg, PageRankProgram{});
  PushPath<PageRankProgram> push(&driver);
  NodeState node;
  Buffer response;
  const Status st = push.ServePull(node, 0, Slice(), &response);
  EXPECT_FALSE(st.ok());
}

// ----------------------------------------------------- hostile wire bytes

Buffer Fixed32s(std::initializer_list<uint32_t> words) {
  Buffer buf;
  Encoder enc(&buf);
  for (uint32_t w : words) enc.PutFixed32(w);
  return buf;
}

TEST(PullWireValidation, OutOfRangeAndTruncatedPayloadsRejected) {
  const auto g = TestGraph();

  // Pull-Requests straight into the b-pull ServePull handler: target Vblock
  // ids past the partition (legacy and batched forms) and truncated batches
  // must fail before any Vblock range is looked up.
  Engine<PageRankProgram> bpull(BaseConfig(EngineMode::kBPull, 1),
                                PageRankProgram{});
  ASSERT_TRUE(bpull.Load(g).ok());
  const uint32_t num_vb = bpull.partition().num_vblocks();
  for (const Buffer& payload :
       {Fixed32s({num_vb}), Fixed32s({2, 0, 0xFFFFFFFFu}),
        Fixed32s({3, 0}), Fixed32s({})}) {
    std::vector<uint8_t> response;
    EXPECT_FALSE(bpull.transport()
                     .Call(1, 0, RpcMethod::kPullRequest, payload.AsSlice(),
                           &response)
                     .ok())
        << payload.size() << " bytes";
  }
  // A well-formed request still succeeds on the same engine.
  std::vector<uint8_t> response;
  EXPECT_TRUE(bpull.transport()
                  .Call(1, 0, RpcMethod::kPullRequest,
                        Fixed32s({num_vb - 1}).AsSlice(), &response)
                  .ok());

  // Pull adverts into the adaptive consume: node 1 advertises a Vblock node
  // 0 does not own, an id past the partition, or fewer ids than it counts.
  // The advert is staged by the handler and decoded in the next consume.
  SsspProgram program;
  program.source = 17;
  const uint32_t foreign_vb = bpull.partition().FirstVblockOf(1);
  for (const Buffer& advert : {Fixed32s({1, foreign_vb}),
                               Fixed32s({1, 0xFFFFFFFFu}), Fixed32s({2, 0})}) {
    Engine<SsspProgram> adaptive(BaseConfig(EngineMode::kAdaptive, 1),
                                 program);
    ASSERT_TRUE(adaptive.Load(g).ok());
    ASSERT_TRUE(adaptive.RunSuperstep().ok());
    ASSERT_TRUE(adaptive.transport()
                    .Post(1, 0, RpcMethod::kPullAdvert, advert.AsSlice())
                    .ok());
    EXPECT_FALSE(adaptive.RunSuperstep().ok()) << advert.size() << " bytes";
  }
}

TEST(PullWireValidation, PullIntoAPushProducerRejected) {
  // A pull fetches what the previous superstep produced; after a push
  // superstep no installed path serves it. Both a push engine and a hybrid
  // engine whose last superstep pushed must refuse the request instead of
  // reaching a b-pull server with no VE-BLOCK store behind it.
  const auto g = TestGraph();
  JobConfig hybrid = BaseConfig(EngineMode::kHybrid, 1);
  hybrid.force_initial_mode = true;
  hybrid.initial_mode = EngineMode::kPush;
  for (const JobConfig& cfg : {BaseConfig(EngineMode::kPush, 1), hybrid}) {
    Engine<PageRankProgram> engine(cfg, PageRankProgram{});
    ASSERT_TRUE(engine.Load(g).ok());
    ASSERT_TRUE(engine.RunSuperstep().ok());
    ASSERT_EQ(engine.stats().supersteps.back().mode, EngineMode::kPush);
    std::vector<uint8_t> response;
    EXPECT_FALSE(engine.transport()
                     .Call(1, 0, RpcMethod::kPullRequest,
                           Fixed32s({engine.partition().FirstVblockOf(0)})
                               .AsSlice(),
                           &response)
                     .ok())
        << EngineModeName(cfg.mode);
  }
}

TEST(PullWireValidation, ResponseGroupsOutsideTheRequestRejected) {
  // Hostile Pull-Respond bytes at the requester: a group whose destination
  // lies in another node's range, past the partition, or in the requester's
  // range but outside the requested target Vblock must fail the consume
  // instead of indexing the pending set.
  const auto g = TestGraph();
  enum class Bad { kForeignNode, kPastPartition, kUnrequestedVblock };
  for (const bool dedup : {false, true}) {
    for (const Bad bad :
         {Bad::kForeignNode, Bad::kPastPartition, Bad::kUnrequestedVblock}) {
      // A batched request asks for every local Vblock at once.
      if (dedup && bad == Bad::kUnrequestedVblock) continue;
      JobConfig cfg = BaseConfig(EngineMode::kBPull, 1);
      cfg.request_respond_dedup = dedup;
      Engine<PageRankProgram> engine(cfg, PageRankProgram{});
      ASSERT_TRUE(engine.Load(g).ok());
      const RangePartition& partition = engine.partition();
      for (NodeId n = 0; n < partition.num_nodes(); ++n) {
        ASSERT_GE(partition.NumVblocksOf(n), 2u);
      }
      ASSERT_TRUE(engine.RunSuperstep().ok());
      engine.transport().RegisterHandler(
          0, RpcMethod::kPullRequest,
          [&partition, bad](NodeId src, Slice payload, Buffer* response) {
            VertexId dst = static_cast<VertexId>(partition.num_vertices());
            if (bad == Bad::kForeignNode) {
              dst = partition.NodeRange((src + 1) % partition.num_nodes())
                        .begin;
            } else if (bad == Bad::kUnrequestedVblock) {
              const uint32_t first = partition.FirstVblockOf(src);
              uint32_t asked = 0;
              EXPECT_TRUE(Decoder(payload).GetFixed32(&asked).ok());
              dst = partition.VblockRange(asked == first ? first + 1 : first)
                        .begin;
            }
            Encoder enc(response);
            enc.PutVarint64(1);
            enc.PutFixed32(dst);
            enc.PutVarint64(1);
            enc.PutDouble(1.0);
            return Status::OK();
          });
      EXPECT_EQ(engine.RunSuperstep().code(), StatusCode::kInvalidArgument)
          << "dedup=" << dedup << " case=" << static_cast<int>(bad);
    }
  }
}

TEST(PullWireValidation, EblockContentsOutsideTheirCellAreCorruption) {
  // Decoded Eblock contents index the serving node's flags and the BS group
  // table: a fragment whose source lies outside its Vblock, or an edge whose
  // destination lies outside the target Vblock, is Corruption at the server.
  const auto g = TestGraph();
  for (const bool bad_src : {true, false}) {
    Engine<PageRankProgram> engine(BaseConfig(EngineMode::kBPull, 1),
                                   PageRankProgram{});
    ASSERT_TRUE(engine.Load(g).ok());
    ASSERT_TRUE(engine.RunSuperstep().ok());
    const RangePartition& partition = engine.partition();
    NodeState& node = engine.nodes()[0];
    for (const std::string& key : node.storage->ListKeys("node0/eblock/")) {
      unsigned src_vb = 0, dst_vb = 0;
      ASSERT_EQ(std::sscanf(key.c_str(), "node0/eblock/%u/%u", &src_vb,
                            &dst_vb),
                2);
      const VertexRange src_range = partition.VblockRange(src_vb);
      const VertexRange dst_range = partition.VblockRange(dst_vb);
      Buffer blob;
      Encoder enc(&blob);
      enc.PutVarint64(1);
      enc.PutFixed32(bad_src ? src_range.end : src_range.begin);
      enc.PutVarint64(1);
      enc.PutFixed32(bad_src ? dst_range.begin : dst_range.end);
      enc.PutFloat(1.0f);
      ASSERT_TRUE(
          node.storage->Write(key, blob.AsSlice(), IoClass::kSeqWrite).ok());
    }
    EXPECT_EQ(engine.RunSuperstep().code(), StatusCode::kCorruption)
        << "bad_src=" << bad_src;
  }
}

/// A kPushMessages body: `n_valid` records for `valid_dst`, then one record
/// for `bad_dst`.
Buffer PushBatch(uint32_t n_valid, VertexId valid_dst, VertexId bad_dst) {
  RecordSlab records(PageRankProgram::kMessageSize);
  for (uint32_t i = 0; i < n_valid; ++i) {
    std::memset(records.Append(valid_dst), 0, records.payload_size());
  }
  std::memset(records.Append(bad_dst), 0, records.payload_size());
  Buffer batch;
  FlatBatchCodec::Encode(records, &batch);
  return batch;
}

/// Posts a push batch from node 1 to node 0 whose last record names a
/// vertex node 0 does not own (one of node 1's, or one past the partition)
/// and expects the superstep that drains it to fail with InvalidArgument
/// instead of indexing node 0's per-vertex state.
void ExpectForeignPushRejected(const JobConfig& cfg, uint32_t n_valid) {
  for (const bool past_partition : {false, true}) {
    Engine<PageRankProgram> engine(cfg, PageRankProgram{});
    ASSERT_TRUE(engine.Load(TestGraph()).ok());
    const std::vector<NodeState>& nodes = engine.nodes();
    const VertexId bad = past_partition ? 0xFFFFFFFFu : nodes[1].range.begin;
    const Buffer batch = PushBatch(n_valid, nodes[0].range.begin, bad);
    ASSERT_TRUE(engine.transport()
                    .Post(1, 0, RpcMethod::kPushMessages, batch.AsSlice())
                    .ok());
    EXPECT_EQ(engine.RunSuperstep().code(), StatusCode::kInvalidArgument)
        << "past_partition=" << past_partition;
  }
}

/// Admits a batch of `n_valid` good records followed by one foreign record
/// straight into node 0's next inbox and expects InvalidArgument with the
/// inbox exactly as it was: a batch is admitted whole or not at all.
void ExpectForeignBatchLeavesInboxUnchanged(const JobConfig& cfg,
                                            uint32_t n_valid) {
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  ASSERT_TRUE(engine.Load(TestGraph()).ok());
  std::vector<NodeState>& nodes = engine.nodes();
  NodeState& node = nodes[0];
  const MessageInbox& inbox = node.inbox_next;
  const RecordSlab mem_before = inbox.mem;
  const uint64_t total_before = inbox.total;
  const Buffer batch =
      PushBatch(n_valid, node.range.begin, nodes[1].range.begin);
  EXPECT_EQ(
      ApplyPushBatch(node, batch.AsSlice(), engine.push_policy())
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(inbox.mem.bytes(), mem_before.bytes());
  EXPECT_EQ(inbox.total, total_before);
  EXPECT_EQ(inbox.spilled, 0u);
  EXPECT_EQ(inbox.spill->num_runs(), 0u);
}

TEST(PushWireValidation, ForeignVertexRejectedBeforeTheMemoryInbox) {
  JobConfig cfg = BaseConfig(EngineMode::kPush, 1);
  cfg.msg_buffer_per_node = UINT64_MAX;  // every record fits in memory
  ExpectForeignPushRejected(cfg, 0);
  // The foreign record comes last, after records that would fit.
  ExpectForeignPushRejected(cfg, 3);
  ExpectForeignBatchLeavesInboxUnchanged(cfg, 3);
}

TEST(PushWireValidation, ForeignVertexRejectedBeforeTheOnlineFold) {
  ExpectForeignPushRejected(BaseConfig(EngineMode::kPushM, 1), 0);
}

TEST(PushWireValidation, ForeignVertexRejectedBeforeTheSpill) {
  // B_i valid records ahead of it fill the memory inbox, so the bad record
  // lands in the overflow that SpillRun would write.
  const JobConfig cfg = BaseConfig(EngineMode::kPush, 1);
  ExpectForeignPushRejected(cfg,
                            static_cast<uint32_t>(cfg.msg_buffer_per_node));
  ExpectForeignBatchLeavesInboxUnchanged(
      cfg, static_cast<uint32_t>(cfg.msg_buffer_per_node) + 5);
}

TEST(PushWireValidation, BatchStraddlingTheBufferSplitsIntoMemoryAndOneRun) {
  const JobConfig cfg = BaseConfig(EngineMode::kPush, 1);  // B_i = 120
  Engine<PageRankProgram> engine(cfg, PageRankProgram{});
  ASSERT_TRUE(engine.Load(TestGraph()).ok());
  NodeState& node = engine.nodes()[0];
  const PushPolicy& policy = engine.push_policy();
  MessageInbox& inbox = node.inbox_next;
  // Record i carries the number i in its payload; destinations descend and
  // repeat, so the run must reorder them stably.
  RecordSlab sent(PageRankProgram::kMessageSize);
  auto batch_of = [&](uint32_t n) {
    RecordSlab records(PageRankProgram::kMessageSize);
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t number = static_cast<uint32_t>(sent.count());
      const VertexId dst = node.range.begin + (n - 1 - i) % 7;
      uint8_t* p = records.Append(dst);
      std::memset(p, 0, records.payload_size());
      std::memcpy(p, &number, 4);
      sent.Append(dst, p);
    }
    Buffer batch;
    FlatBatchCodec::Encode(records, &batch);
    return batch;
  };
  ASSERT_TRUE(ApplyPushBatch(node, batch_of(100).AsSlice(), policy).ok());
  ASSERT_EQ(inbox.mem.count(), 100u);
  ASSERT_TRUE(ApplyPushBatch(node, batch_of(50).AsSlice(), policy).ok());
  // Exactly B_i − |mem| = 20 records of the second batch reach memory.
  ASSERT_EQ(inbox.mem.count(), cfg.msg_buffer_per_node);
  EXPECT_EQ(inbox.mem.bytes(),
            sent.bytes().SubSlice(0, 120 * sent.record_size()));
  EXPECT_EQ(inbox.total, 150u);
  EXPECT_EQ(inbox.spilled, 30u);
  // The 30-record tail is one run, in stable destination order.
  ASSERT_EQ(inbox.spill->num_runs(), 1u);
  RecordSlab merged(PageRankProgram::kMessageSize);
  ASSERT_TRUE(inbox.spill->MergeReadAll(&merged).ok());
  std::vector<uint32_t> tail(30);
  for (uint32_t i = 0; i < 30; ++i) tail[i] = 120 + i;
  std::stable_sort(tail.begin(), tail.end(), [&](uint32_t a, uint32_t b) {
    return sent.dst(a) < sent.dst(b);
  });
  ASSERT_EQ(merged.count(), tail.size());
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(Slice(merged.record(i), merged.record_size()),
              Slice(sent.record(tail[i]), sent.record_size()))
        << "i=" << i;
  }
}

TEST(PushWireValidation, BodyNotWholeRecordsIsCorruption) {
  Engine<PageRankProgram> engine(BaseConfig(EngineMode::kPush, 1),
                                 PageRankProgram{});
  ASSERT_TRUE(engine.Load(TestGraph()).ok());
  const VertexId dst = engine.nodes()[0].range.begin;
  Buffer batch = PushBatch(2, dst, dst);
  batch.PushBack(0);
  ASSERT_TRUE(engine.transport()
                  .Post(1, 0, RpcMethod::kPushMessages, batch.AsSlice())
                  .ok());
  EXPECT_EQ(engine.RunSuperstep().code(), StatusCode::kCorruption);
}

// ------------------------------------------------- Pull-Respond wire golden

/// FNV-1a over every Pull-Respond answer of a whole b-pull run, folded in a
/// thread-count-independent order: (superstep, requester, server, call).
/// The answers are produced by a BPullPath serving on the engine itself,
/// exactly what the installed b-pull path would have answered.
template <typename P>
uint64_t PullResponseDigest(P program, bool combining, bool dedup,
                            uint32_t threads) {
  JobConfig cfg = BaseConfig(EngineMode::kBPull, threads);
  cfg.bpull_combining = combining;
  cfg.request_respond_dedup = dedup;
  cfg.max_supersteps = 6;
  Engine<P> engine(cfg, program);
  EXPECT_TRUE(engine.Load(TestGraph()).ok());
  EXPECT_GT(engine.partition().num_vblocks(), cfg.num_nodes);
  Engine<P>& driver = engine;
  BPullPath<P> server(&driver);
  std::mutex mu;
  std::map<std::tuple<int, NodeId, NodeId>, std::vector<uint64_t>> answers;
  for (NodeId i = 0; i < cfg.num_nodes; ++i) {
    driver.transport().RegisterHandler(
        i, RpcMethod::kPullRequest,
        [&, i](NodeId src, Slice payload, Buffer* response) {
          HG_RETURN_IF_ERROR(
              server.ServePull(driver.nodes()[i], src, payload, response));
          std::lock_guard<std::mutex> lock(mu);
          answers[{driver.superstep(), src, i}].push_back(
              Fnv1a64(response->data(), response->size()));
          return Status::OK();
        });
  }
  EXPECT_TRUE(engine.Run().ok());
  uint64_t h = Fnv1a64(nullptr, 0);
  uint64_t count = 0;
  for (const auto& [key, digests] : answers) {
    for (const uint64_t d : digests) {
      h = Fnv1a64(&d, sizeof(d), h);
      ++count;
    }
  }
  EXPECT_GT(count, 0u);
  return h;
}

TEST(PullResponseGolden, ResponseBytesArePinned) {
  // Digests recorded before the flat-slab BS and the per-Eblock V_rr span
  // read: the Pull-Respond wire bytes must not move by a single bit.
  struct Case {
    const char* name;
    bool lpa;
    bool combining;
    bool dedup;
    uint64_t golden;
  };
  const Case cases[] = {
      {"pagerank-combined-legacy", false, true, false, 0xaae1f5c57d4205fdULL},
      {"pagerank-combined-dedup", false, true, true, 0x2dfcec746f86db4fULL},
      {"pagerank-concat-legacy", false, false, false, 0x0ff55c37ff3b0dd5ULL},
      {"pagerank-concat-dedup", false, false, true, 0x20c840af4c19237fULL},
      {"lpa-legacy", true, true, false, 0x12d9d0b2a5922352ULL},
      {"lpa-dedup", true, true, true, 0x4d21fdedb2cd439dULL},
  };
  for (const Case& c : cases) {
    for (const uint32_t threads : {1u, 8u}) {
      const uint64_t got =
          c.lpa ? PullResponseDigest(LpaProgram{}, c.combining, c.dedup,
                                     threads)
                : PullResponseDigest(PageRankProgram{}, c.combining, c.dedup,
                                     threads);
      EXPECT_EQ(got, c.golden) << c.name << " threads=" << threads
                               << " got 0x" << std::hex << got;
    }
  }
}

// ------------------------------------------------ push wire and spill golden

/// FNV-1a over every kPushMessages batch and every spill-run blob of a push
/// run, folded in a thread-count-independent order: batches by (superstep,
/// sender, receiver, post), then runs by (superstep, storage key). Runs are
/// read after each superstep, while the promoted inbox still holds them.
template <typename P>
uint64_t PushWireDigest(P program, bool sender_combining, uint32_t threads) {
  JobConfig cfg = BaseConfig(EngineMode::kPush, threads);
  cfg.push_sender_combining = sender_combining;
  cfg.max_supersteps = 6;
  Engine<P> engine(cfg, program);
  EXPECT_TRUE(engine.Load(TestGraph()).ok());
  Engine<P>& driver = engine;
  std::mutex mu;
  std::map<std::tuple<int, NodeId, NodeId>, std::vector<uint64_t>> batches;
  for (NodeId i = 0; i < cfg.num_nodes; ++i) {
    NodeState* node = &driver.nodes()[i];
    driver.transport().RegisterHandler(
        i, RpcMethod::kPushMessages,
        [&, node, i](NodeId src, Slice payload, Buffer*) {
          node->push_staged[src].emplace_back(payload.data(),
                                              payload.data() + payload.size());
          std::lock_guard<std::mutex> lock(mu);
          batches[{driver.superstep(), src, i}].push_back(
              Fnv1a64(payload.data(), payload.size()));
          return Status::OK();
        });
  }
  uint64_t runs = Fnv1a64(nullptr, 0);
  uint64_t num_runs = 0;
  for (int t = 0; t < cfg.max_supersteps; ++t) {
    EXPECT_TRUE(engine.RunSuperstep().ok());
    for (NodeState& node : driver.nodes()) {
      const std::string prefix = "node" + std::to_string(node.id) + "/spill/";
      for (const std::string& key : node.storage->ListKeys(prefix)) {
        auto blob = node.storage->Read(key, {.metering = false});
        EXPECT_TRUE(blob.ok()) << key;
        if (!blob.ok()) continue;
        runs = Fnv1a64(blob->data.data(), blob->data.size(), runs);
        ++num_runs;
      }
    }
  }
  uint64_t h = Fnv1a64(nullptr, 0);
  uint64_t num_batches = 0;
  for (const auto& [key, digests] : batches) {
    for (const uint64_t d : digests) {
      h = Fnv1a64(&d, sizeof(d), h);
      ++num_batches;
    }
  }
  EXPECT_GT(num_batches, 0u);
  EXPECT_GT(num_runs, 0u);
  return Fnv1a64(&runs, sizeof(runs), h);
}

TEST(PushWireGolden, BatchAndSpillRunBytesArePinned) {
  // Digests recorded before push messages moved onto one flat record slab:
  // push batches and spill runs must not move by a single bit.
  struct Case {
    const char* name;
    bool lpa;
    bool sender_combining;
    uint64_t golden;
  };
  const Case cases[] = {
      {"pagerank", false, false, 0x45400b026bc4cf3eULL},
      {"pagerank-sendcom", false, true, 0x5e05cf328f95beeeULL},
      {"lpa", true, false, 0xf273fd67c16bdaddULL},
      {"lpa-sendcom", true, true, 0xf273fd67c16bdaddULL},
  };
  for (const Case& c : cases) {
    for (const uint32_t threads : {1u, 8u}) {
      const uint64_t got =
          c.lpa ? PushWireDigest(LpaProgram{}, c.sender_combining, threads)
                : PushWireDigest(PageRankProgram{}, c.sender_combining,
                                 threads);
      EXPECT_EQ(got, c.golden) << c.name << " threads=" << threads
                               << " got 0x" << std::hex << got;
    }
  }
}

TEST(PushWireGolden, CheckpointImageIsPinned) {
  // A push-mode checkpoint at superstep 3 carries a memory inbox and spilled
  // runs; its image bytes are the checkpoint inbox-section golden.
  for (const uint32_t threads : {1u, 8u}) {
    Engine<PageRankProgram> engine(BaseConfig(EngineMode::kPush, threads),
                                   PageRankProgram{});
    ASSERT_TRUE(engine.Load(TestGraph()).ok());
    for (int t = 0; t < 3; ++t) ASSERT_TRUE(engine.RunSuperstep().ok());
    Buffer image;
    ASSERT_TRUE(engine.WriteCheckpoint(&image).ok());
    const uint64_t got = Fnv1a64(image.data(), image.size());
    EXPECT_EQ(got, 0xd68ed1e7480ea966ULL) << "threads=" << threads << " got 0x" << std::hex
                           << got;
  }
}

// ------------------------------------------------------------- trace spans

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

size_t CountOccurrences(const std::string& hay, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(TraceSpans, HybridRunWritesChromeTracingJson) {
  const std::string path =
      ::testing::TempDir() + "/hg_trace_spans_test.json";
  std::remove(path.c_str());

  const auto g = TestGraph();
  JobConfig cfg = BaseConfig(EngineMode::kHybrid, 2);
  cfg.max_supersteps = 4;
  cfg.trace_path = path;
  auto rig = MakeRig(cfg, PageRankProgram{});
  ASSERT_TRUE(rig.driver->Load(g).ok());
  ASSERT_TRUE(rig.driver->Run().ok());
  EXPECT_GT(rig.driver->trace()->num_events(), 0u);

  const std::string json = ReadFileOrEmpty(path);
  ASSERT_FALSE(json.empty());
  // Trace Event Format essentials chrome://tracing requires.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Well-formed JSON object: balanced braces/brackets, object at top level.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(CountOccurrences(json, "{"), CountOccurrences(json, "}"));
  EXPECT_EQ(CountOccurrences(json, "["), CountOccurrences(json, "]"));
  // One driver-level span (pid 0) per phase per superstep, plus per-node
  // spans (pid = node+1) underneath.
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"consume\""),
            static_cast<size_t>(cfg.max_supersteps) * (1 + cfg.num_nodes));
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"update\""),
            static_cast<size_t>(cfg.max_supersteps) * (1 + cfg.num_nodes));
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"drain\""),
            static_cast<size_t>(cfg.max_supersteps) * (1 + cfg.num_nodes));
  // Span args carry the superstep and the mode name.
  EXPECT_NE(json.find("\"superstep\""), std::string::npos);
  EXPECT_NE(json.find("\"mode\""), std::string::npos);

  std::remove(path.c_str());
}

TEST(TraceSpans, PrefetchRunEmitsOverlapAndPrefetchSpans) {
  const std::string path =
      ::testing::TempDir() + "/hg_trace_prefetch_test.json";
  std::remove(path.c_str());

  const auto g = TestGraph();
  JobConfig cfg = BaseConfig(EngineMode::kPush, 2);
  cfg.max_supersteps = 3;
  cfg.io.prefetch_depth = 4;
  cfg.trace_path = path;
  auto rig = MakeRig(cfg, PageRankProgram{});
  ASSERT_TRUE(rig.driver->Load(g).ok());
  ASSERT_TRUE(rig.driver->Run().ok());

  const std::string json = ReadFileOrEmpty(path);
  ASSERT_FALSE(json.empty());
  // One warmup window per node per superstep (inside the drain phase)...
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"drain.overlap\""),
            static_cast<size_t>(cfg.max_supersteps) * cfg.num_nodes);
  // ...and one background-read window per claimed staged read.
  uint64_t hits = 0;
  for (const auto& s : rig.driver->stats().supersteps) {
    hits += s.prefetch_hits;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"io.prefetch\""),
            static_cast<size_t>(hits));

  std::remove(path.c_str());
}

TEST(TraceSpans, DisabledByDefaultAndZeroEvents) {
  const auto g = TestGraph();
  JobConfig cfg = BaseConfig(EngineMode::kBPull, 1);
  cfg.max_supersteps = 2;
  auto rig = MakeRig(cfg, PageRankProgram{});
  ASSERT_TRUE(rig.driver->Load(g).ok());
  ASSERT_TRUE(rig.driver->Run().ok());
  EXPECT_FALSE(rig.driver->trace()->enabled());
  EXPECT_EQ(rig.driver->trace()->num_events(), 0u);
}

TEST(TraceSpans, PhaseWallTimesPopulateMetrics) {
  const auto g = TestGraph();
  JobConfig cfg = BaseConfig(EngineMode::kPush, 1);
  cfg.max_supersteps = 3;
  auto rig = MakeRig(cfg, PageRankProgram{});
  ASSERT_TRUE(rig.driver->Load(g).ok());
  ASSERT_TRUE(rig.driver->Run().ok());
  for (const auto& s : rig.driver->stats().supersteps) {
    EXPECT_GE(s.phase_consume_wall_s, 0.0);
    EXPECT_GE(s.phase_update_wall_s, 0.0);
    EXPECT_GE(s.phase_drain_wall_s, 0.0);
    // The update sweep always does real work.
    EXPECT_GT(s.phase_update_wall_s, 0.0);
  }
}

}  // namespace
}  // namespace hybridgraph
