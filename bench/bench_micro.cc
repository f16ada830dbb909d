// Micro-benchmarks (google-benchmark) of the substrate hot paths: codec,
// message batch encode/decode, storage access, spill merge, and Eblock scan.
#include <benchmark/benchmark.h>

#include "graph/generator.h"
#include "graph/ve_block_store.h"
#include "io/message_spill.h"
#include "io/storage.h"
#include "net/message_codec.h"
#include "util/codec.h"
#include "util/record_slab.h"
#include "util/rng.h"

namespace hybridgraph {
namespace {

void BM_VarintEncode(benchmark::State& state) {
  Rng rng(1);
  std::vector<uint64_t> values(1024);
  for (auto& v : values) v = rng.Next() >> (rng.Next() % 64);
  Buffer buf;
  for (auto _ : state) {
    buf.Clear();
    Encoder enc(&buf);
    for (uint64_t v : values) enc.PutVarint64(v);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_VarintEncode);

void BM_VarintDecode(benchmark::State& state) {
  Rng rng(1);
  Buffer buf;
  Encoder enc(&buf);
  constexpr int kN = 1024;
  for (int i = 0; i < kN; ++i) enc.PutVarint64(rng.Next() >> (rng.Next() % 64));
  for (auto _ : state) {
    Decoder dec(buf.AsSlice());
    uint64_t v;
    for (int i = 0; i < kN; ++i) {
      benchmark::DoNotOptimize(dec.GetVarint64(&v));
    }
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_VarintDecode);

void BM_FlatBatchRoundTrip(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  RecordSlab msgs(8);
  std::vector<uint8_t> payload(8, 0xAB);
  for (int i = 0; i < n; ++i) msgs.Append(i * 7, payload.data());
  for (auto _ : state) {
    Buffer buf;
    FlatBatchCodec::Encode(msgs, &buf);
    uint64_t sum = 0;
    benchmark::DoNotOptimize(FlatBatchCodec::ForEach(
        buf.AsSlice(), 8, [&](uint32_t dst, const uint8_t* p) {
          sum += dst + p[0];
          return Status::OK();
        }));
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlatBatchRoundTrip)->Arg(256)->Arg(4096);

void BM_MemStorageReadRange(benchmark::State& state) {
  MemStorage storage;
  std::vector<uint8_t> blob(1 << 20, 7);
  (void)storage.Write("k", Slice(blob), IoClass::kSeqWrite);
  Rng rng(3);
  for (auto _ : state) {
    const uint64_t off = rng.NextBounded((1 << 20) - 16);
    benchmark::DoNotOptimize(storage.Read(
        "k", {.offset = off, .length = 16, .io_class = IoClass::kRandRead}));
  }
}
BENCHMARK(BM_MemStorageReadRange);

/// `n` spill records of 12 bytes (8-byte payloads) with destinations drawn
/// from [0, 10000): a span that takes two radix passes.
RecordSlab SpillRecords(Rng* rng, int n) {
  RecordSlab records(8);
  const std::vector<uint8_t> payload(8, 1);
  for (int i = 0; i < n; ++i) {
    records.Append(static_cast<uint32_t>(rng->NextBounded(10000)),
                   payload.data());
  }
  return records;
}

// One SpillRun: the destination sort plus writing the run blob.
void BM_SpillRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  const RecordSlab records = SpillRecords(&rng, n);
  MemStorage storage;
  MessageSpill spill(&storage, "b", 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spill.SpillRun(records.bytes()));
    state.PauseTiming();
    (void)spill.Clear();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpillRun)->Arg(1340)->Arg(10000);

// A k-way merge of `fan_in` runs of `per_run` records each. {160, 1340} is
// the pr-push-spill shape: its merge fan-in per node and superstep.
void BM_SpillMerge(benchmark::State& state) {
  const int runs = static_cast<int>(state.range(0));
  const int per_run = static_cast<int>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    MemStorage storage;
    MessageSpill spill(&storage, "b", 8);
    Rng rng(5);
    for (int r = 0; r < runs; ++r) {
      (void)spill.SpillRun(SpillRecords(&rng, per_run).bytes());
    }
    state.ResumeTiming();
    RecordSlab out(8);
    benchmark::DoNotOptimize(spill.MergeReadAll(&out));
  }
  state.SetItemsProcessed(state.iterations() * runs * per_run);
}
BENCHMARK(BM_SpillMerge)
    ->Args({8, 1000})
    ->Args({8, 10000})
    ->Args({160, 1340});

void BM_EblockScan(benchmark::State& state) {
  const auto graph = GeneratePowerLaw(5000, 12.0, 0.8, 9);
  auto partition = RangePartition::CreateUniform(5000, 2, 8).ValueOrDie();
  std::vector<RawEdge> local;
  for (const auto& e : graph.edges) {
    if (partition.NodeOf(e.src) == 0) local.push_back(e);
  }
  MemStorage storage;
  auto store = VeBlockStore::Build(&storage, partition, 0, local,
                                   graph.InDegrees())
                   .ValueOrDie();
  VeBlockStore::ScanResult scan;
  for (auto _ : state) {
    for (uint32_t svb = 0; svb < 8; ++svb) {
      for (uint32_t dvb = 0; dvb < 16; ++dvb) {
        benchmark::DoNotOptimize(store->ScanEblock(svb, dvb, &scan));
        uint64_t edges = 0;
        EdgeRunWalker runs = scan.Walk();
        for (EdgeRun run; runs.Next(&run);) edges += run.edges.size();
        benchmark::DoNotOptimize(edges);
      }
    }
  }
}
BENCHMARK(BM_EblockScan);

}  // namespace
}  // namespace hybridgraph

BENCHMARK_MAIN();
