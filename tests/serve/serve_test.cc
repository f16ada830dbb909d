// Tests for the streaming query server: protocol codec round-trips, epoch
// commits publishing consistent snapshots, RPC handlers over the transport,
// and the concurrency contract — queries during an in-flight epoch are
// answered from the previous converged snapshot, never a torn state (this
// suite is a TSan target; see scripts/check_tsan.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/epoch_driver.h"
#include "graph/generator.h"
#include "serve/serve_server.h"
#include "util/codec.h"

namespace hybridgraph {
namespace {

// ------------------------------------------------------------------ protocol

TEST(ServeProtocol, IngestRoundTrip) {
  EdgeBatch batch;
  batch.timestamp = 42;
  batch.deltas.push_back({1, 2, 1.5f, false});
  batch.deltas.push_back({3, 4, 0.0f, true});
  Buffer buf;
  EncodeIngestRequest(batch, &buf);
  EdgeBatch got;
  ASSERT_TRUE(DecodeIngestRequest(buf.AsSlice(), &got).ok());
  EXPECT_EQ(got.timestamp, 42u);
  ASSERT_EQ(got.deltas.size(), 2u);
  EXPECT_EQ(got.deltas[0], batch.deltas[0]);
  EXPECT_EQ(got.deltas[1], batch.deltas[1]);

  IngestResponse resp{7, 3};
  buf.Clear();
  EncodeIngestResponse(resp, &buf);
  IngestResponse rgot;
  ASSERT_TRUE(DecodeIngestResponse(buf.AsSlice(), &rgot).ok());
  EXPECT_EQ(rgot.accepted, 7u);
  EXPECT_EQ(rgot.queue_depth, 3u);
}

TEST(ServeProtocol, GetAndTopKRoundTrip) {
  Buffer buf;
  EncodeGetRequest(123, &buf);
  uint32_t v = 0;
  ASSERT_TRUE(DecodeGetRequest(buf.AsSlice(), &v).ok());
  EXPECT_EQ(v, 123u);

  GetResponse get{9, 8, 0.25};
  buf.Clear();
  EncodeGetResponse(get, &buf);
  GetResponse ggot;
  ASSERT_TRUE(DecodeGetResponse(buf.AsSlice(), &ggot).ok());
  EXPECT_EQ(ggot.epoch, 9u);
  EXPECT_EQ(ggot.timestamp, 8u);
  EXPECT_DOUBLE_EQ(ggot.value, 0.25);

  TopKResponse topk;
  topk.epoch = 5;
  topk.timestamp = 4;
  topk.entries = {{10, 0.9}, {20, 0.8}};
  buf.Clear();
  EncodeTopKResponse(topk, &buf);
  TopKResponse tgot;
  ASSERT_TRUE(DecodeTopKResponse(buf.AsSlice(), &tgot).ok());
  EXPECT_EQ(tgot.epoch, 5u);
  ASSERT_EQ(tgot.entries.size(), 2u);
  EXPECT_EQ(tgot.entries[0].vertex, 10u);
  EXPECT_DOUBLE_EQ(tgot.entries[1].value, 0.8);
}

TEST(ServeProtocol, TopKResponseCountBeyondTheBytesIsCorruption) {
  // A 1-entry response claiming 2^40 entries must not reach reserve().
  Buffer buf;
  Encoder enc(&buf);
  enc.PutFixed64(5);  // epoch
  enc.PutFixed64(4);  // timestamp
  enc.PutVarint64(uint64_t{1} << 40);
  enc.PutFixed32(10);
  enc.PutDouble(0.9);
  TopKResponse got;
  EXPECT_EQ(DecodeTopKResponse(buf.AsSlice(), &got).code(),
            StatusCode::kCorruption);
}

TEST(ServeProtocol, StatsRoundTrip) {
  StatsResponse s;
  s.snapshot_epoch = 3;
  s.snapshot_timestamp = 2;
  s.epochs_committed = 3;
  s.queue_depth = 1;
  s.batches_ingested = 4;
  s.staleness_s = 0.5;
  s.metrics_json = "[{\"epoch\": 0}]";
  Buffer buf;
  EncodeStatsResponse(s, &buf);
  StatsResponse got;
  ASSERT_TRUE(DecodeStatsResponse(buf.AsSlice(), &got).ok());
  EXPECT_EQ(got.snapshot_epoch, 3u);
  EXPECT_EQ(got.batches_ingested, 4u);
  EXPECT_DOUBLE_EQ(got.staleness_s, 0.5);
  EXPECT_EQ(got.metrics_json, s.metrics_json);
}

TEST(ServeProtocol, RejectsTruncatedAndTrailingBytes) {
  Buffer buf;
  EncodeGetRequest(7, &buf);
  uint32_t v;
  EXPECT_FALSE(DecodeGetRequest(Slice(buf.data(), buf.size() - 1), &v).ok());
  buf.Append("\0", 1);  // trailing garbage
  EXPECT_FALSE(DecodeGetRequest(buf.AsSlice(), &v).ok());

  EdgeBatch b;
  EXPECT_FALSE(DecodeIngestRequest(Slice("xy", 2), &b).ok());
}

// ------------------------------------------------------------------- server

struct ServeFixture {
  EdgeListGraph graph;
  std::unique_ptr<AnyEpochEngine> engine;

  explicit ServeFixture(const std::string& algo = "pagerank-delta",
                        uint64_t n = 200) {
    graph = GeneratePowerLaw(n, 5.0, 0.7, 19);
    JobConfig cfg;
    cfg.mode = EngineMode::kHybrid;
    cfg.num_nodes = 2;
    cfg.msg_buffer_per_node = 200;
    cfg.max_supersteps = 200;
    EpochAlgoSpec spec;
    spec.name = algo;
    spec.tolerance = 1e-10;
    engine = MakeEpochEngine(cfg, spec).ValueOrDie();
    EXPECT_TRUE(engine->Load(graph).ok());
  }

  std::vector<EdgeBatch> Stream(uint32_t batches, uint32_t size,
                                double deletes, uint64_t seed) {
    EdgeStreamOptions so;
    so.num_batches = batches;
    so.batch_size = size;
    so.delete_fraction = deletes;
    so.seed = seed;
    return GenerateEdgeStream(graph, so);
  }
};

TEST(ServeServer, CommitsEpochsAndPublishesSnapshots) {
  ServeFixture f;
  ServeServer server(f.engine.get(), {});
  ASSERT_TRUE(server.Start().ok());

  auto snap0 = server.board().Current();
  ASSERT_NE(snap0, nullptr);
  EXPECT_EQ(snap0->epoch, 0u);
  EXPECT_EQ(snap0->values.size(), f.graph.num_vertices);

  for (const auto& batch : f.Stream(3, 20, 0.2, 31)) {
    server.SubmitBatch(batch);
  }
  ASSERT_TRUE(server.WaitIdle().ok());
  EXPECT_EQ(server.epochs_committed(), 3u);
  EXPECT_EQ(server.queue_depth(), 0u);

  auto snap = server.board().Current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch, 3u);
  EXPECT_EQ(snap->timestamp, 2u);  // last batch's timestamp
  EXPECT_EQ(snap->values.size(), f.graph.num_vertices);
  EXPECT_EQ(server.metrics().size(), 3u);

  // The published values ARE the engine's converged values.
  EXPECT_EQ(snap->values, f.engine->GatherValuesAsDouble().ValueOrDie());
  server.Stop();
}

TEST(ServeServer, HandlersAnswerOverTransport) {
  ServeFixture f;
  ServeServer server(f.engine.get(), {});
  InProcTransport transport(2);
  server.RegisterHandlers(&transport, 0);
  ASSERT_TRUE(transport.Start().ok());
  ASSERT_TRUE(server.Start().ok());

  // INGEST via RPC, then wait and GET.
  Buffer req;
  std::vector<uint8_t> resp;
  auto stream = f.Stream(2, 16, 0.0, 32);
  for (const auto& batch : stream) {
    req.Clear();
    EncodeIngestRequest(batch, &req);
    ASSERT_TRUE(transport
                    .Call(1, 0, RpcMethod::kServeIngest, req.AsSlice(), &resp)
                    .ok());
    IngestResponse ir;
    ASSERT_TRUE(DecodeIngestResponse(Slice(resp), &ir).ok());
    EXPECT_EQ(ir.accepted, batch.deltas.size());
  }
  ASSERT_TRUE(server.WaitIdle().ok());

  req.Clear();
  EncodeGetRequest(0, &req);
  ASSERT_TRUE(
      transport.Call(1, 0, RpcMethod::kServeGet, req.AsSlice(), &resp).ok());
  GetResponse get;
  ASSERT_TRUE(DecodeGetResponse(Slice(resp), &get).ok());
  EXPECT_EQ(get.epoch, 2u);
  EXPECT_EQ(get.value, f.engine->GatherValuesAsDouble().ValueOrDie()[0]);

  // Out-of-range vertex is an error, not a crash.
  req.Clear();
  EncodeGetRequest(static_cast<uint32_t>(f.graph.num_vertices), &req);
  EXPECT_FALSE(
      transport.Call(1, 0, RpcMethod::kServeGet, req.AsSlice(), &resp).ok());

  req.Clear();
  EncodeTopKRequest(3, &req);
  ASSERT_TRUE(
      transport.Call(1, 0, RpcMethod::kServeTopK, req.AsSlice(), &resp).ok());
  TopKResponse topk;
  ASSERT_TRUE(DecodeTopKResponse(Slice(resp), &topk).ok());
  ASSERT_EQ(topk.entries.size(), 3u);
  EXPECT_GE(topk.entries[0].value, topk.entries[1].value);
  EXPECT_GE(topk.entries[1].value, topk.entries[2].value);

  req.Clear();
  ASSERT_TRUE(
      transport.Call(1, 0, RpcMethod::kServeStats, req.AsSlice(), &resp).ok());
  StatsResponse stats;
  ASSERT_TRUE(DecodeStatsResponse(Slice(resp), &stats).ok());
  EXPECT_EQ(stats.epochs_committed, 2u);
  EXPECT_EQ(stats.batches_ingested, 2u);
  server.Stop();
}

TEST(ServeServer, IngestWithOutOfRangeEndpointRejectedBeforeQueueing) {
  ServeFixture f("sssp");
  ServeServer server(f.engine.get(), {});
  InProcTransport transport(2);
  server.RegisterHandlers(&transport, 0);
  ASSERT_TRUE(transport.Start().ok());
  ASSERT_TRUE(server.Start().ok());

  EdgeBatch bad;
  bad.deltas.push_back(
      {0, static_cast<VertexId>(f.graph.num_vertices), 1.0f, false});
  Buffer req;
  std::vector<uint8_t> resp;
  EncodeIngestRequest(bad, &req);
  const Status st =
      transport.Call(1, 0, RpcMethod::kServeIngest, req.AsSlice(), &resp);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  // Nothing was queued, so the epoch thread never sees the batch and the
  // server stays healthy.
  EXPECT_EQ(server.Stats().batches_ingested, 0u);
  EXPECT_TRUE(server.WaitIdle().ok());
  EXPECT_EQ(server.epochs_committed(), 0u);
  server.Stop();
}

TEST(ServeServer, MetricsFilesWritten) {
  ServeFixture f("sssp");
  ServeServer::Options opts;
  opts.metrics_csv_path = "/tmp/hg_serve_test_metrics.csv";
  opts.metrics_json_path = "/tmp/hg_serve_test_metrics.json";
  std::remove(opts.metrics_csv_path.c_str());
  std::remove(opts.metrics_json_path.c_str());
  ServeServer server(f.engine.get(), opts);
  ASSERT_TRUE(server.Start().ok());
  for (const auto& batch : f.Stream(2, 10, 0.0, 33)) {
    server.SubmitBatch(batch);
  }
  ASSERT_TRUE(server.WaitIdle().ok());
  server.Stop();

  FILE* csv = std::fopen(opts.metrics_csv_path.c_str(), "r");
  ASSERT_NE(csv, nullptr);
  char line[512];
  ASSERT_NE(std::fgets(line, sizeof(line), csv), nullptr);
  EXPECT_EQ(std::string(line).rfind("epoch,timestamp,", 0), 0u);
  int rows = 0;
  while (std::fgets(line, sizeof(line), csv) != nullptr) ++rows;
  std::fclose(csv);
  EXPECT_EQ(rows, 2);
  FILE* json = std::fopen(opts.metrics_json_path.c_str(), "r");
  ASSERT_NE(json, nullptr);
  std::fclose(json);
  std::remove(opts.metrics_csv_path.c_str());
  std::remove(opts.metrics_json_path.c_str());
}

// The TSan target: queries race the epoch thread across many commits and
// must always observe a complete previous snapshot — monotone epochs, full
// value vectors, internally consistent TopK — never a torn value store.
TEST(ServeServer, ConcurrentIngestAndQueriesSeeOnlyCommittedSnapshots) {
  ServeFixture f("pagerank-delta", 150);
  ServeServer server(f.engine.get(), {});
  InProcTransport transport(2);
  server.RegisterHandlers(&transport, 0);
  ASSERT_TRUE(transport.Start().ok());
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread querier([&] {
    uint64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      // Direct board read: the snapshot must be complete and epochs must
      // only move forward.
      auto snap = server.board().Current();
      if (snap == nullptr || snap->values.size() != f.graph.num_vertices ||
          snap->epoch < last_epoch) {
        failures.fetch_add(1);
        break;
      }
      last_epoch = snap->epoch;
      // RPC path: GET and TOPK answered mid-epoch from the board.
      Buffer req;
      std::vector<uint8_t> resp;
      EncodeGetRequest(0, &req);
      if (!transport.Call(1, 0, RpcMethod::kServeGet, req.AsSlice(), &resp)
               .ok()) {
        failures.fetch_add(1);
        break;
      }
      req.Clear();
      EncodeTopKRequest(4, &req);
      TopKResponse topk;
      if (!transport.Call(1, 0, RpcMethod::kServeTopK, req.AsSlice(), &resp)
               .ok() ||
          !DecodeTopKResponse(Slice(resp), &topk).ok() ||
          topk.entries.size() != 4 ||
          topk.entries[0].value < topk.entries[3].value) {
        failures.fetch_add(1);
        break;
      }
    }
  });

  Buffer req;
  std::vector<uint8_t> resp;
  for (const auto& batch : f.Stream(6, 12, 0.25, 34)) {
    req.Clear();
    EncodeIngestRequest(batch, &req);
    ASSERT_TRUE(transport
                    .Call(1, 0, RpcMethod::kServeIngest, req.AsSlice(), &resp)
                    .ok());
  }
  ASSERT_TRUE(server.WaitIdle().ok());
  done.store(true, std::memory_order_release);
  querier.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.epochs_committed(), 6u);
  server.Stop();
}

TEST(ServeServer, StopDropsQueuedBatches) {
  ServeFixture f("wcc");
  ServeServer server(f.engine.get(), {});
  ASSERT_TRUE(server.Start().ok());
  auto stream = f.Stream(4, 10, 0.0, 35);
  for (const auto& batch : stream) server.SubmitBatch(batch);
  server.Stop();
  // At most the in-flight epochs committed; a second Stop is a no-op.
  EXPECT_LE(server.epochs_committed(), 4u);
  server.Stop();
}

}  // namespace
}  // namespace hybridgraph
