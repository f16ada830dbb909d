// Streaming-epoch bench: what delta propagation buys over cold recompute.
//
// For each dataset and batch size, a PageRankDelta epoch engine converges
// once cold, then ingests a stream of batches and reconverges each by delta
// propagation (warm restart from the previous fixpoint). Every epoch is
// compared against the honest alternative — a cold batch run over the same
// mutated graph — on modeled I/O bytes AND wall clock. Small batches must
// win on both axes, on both datasets; large batches are reported for the
// crossover shape but not gated.
//
// Emits BENCH_stream.json (path overridable via argv[1]). The JSON is
// written before any hard-fail exit so a regression still leaves evidence.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hybridgraph/any_engine.h"

using namespace hybridgraph;
using namespace hybridgraph::bench;

namespace {

constexpr uint32_t kBatchSizes[] = {16, 256, 4096};
constexpr uint32_t kEpochsPerSize = 3;
constexpr double kTolerance = 1e-9;

JobConfig StreamConfig() {
  JobConfig cfg;
  cfg.mode = EngineMode::kHybrid;
  cfg.num_nodes = 2;
  cfg.msg_buffer_per_node = UINT64_MAX;
  cfg.max_supersteps = 500;
  return cfg;
}

struct Row {
  std::string dataset;
  uint32_t batch_size = 0;
  // Averages over kEpochsPerSize epochs.
  double epoch_io_bytes = 0;
  double epoch_wall_s = 0;
  double epoch_supersteps = 0;
  // The cold batch run over the final mutated graph.
  uint64_t cold_io_bytes = 0;
  double cold_wall_s = 0;
  uint64_t cold_supersteps = 0;
};

/// Cold oracle cost: a fresh engine over `graph`, converged from scratch.
/// Build/load I/O is excluded on both sides — the comparison is "reconverge
/// an already-loaded graph" vs "recompute it cold".
bool MeasureCold(const EdgeListGraph& graph, Row* row) {
  auto engine = MakeEpochEngine(StreamConfig(), EpochAlgoSpec{}).ValueOrDie();
  if (!engine->Load(graph).ok()) return false;
  const auto t0 = std::chrono::steady_clock::now();
  if (!engine->Run().ok()) return false;
  const auto t1 = std::chrono::steady_clock::now();
  row->cold_io_bytes = engine->stats().TotalIoBytes();
  row->cold_wall_s = std::chrono::duration<double>(t1 - t0).count();
  row->cold_supersteps = engine->stats().supersteps.size();
  return true;
}

bool MeasureStream(const DatasetSpec& spec, uint32_t batch_size,
                   std::vector<Row>* rows) {
  EdgeListGraph graph = BuildDataset(spec);
  Row row;
  row.dataset = spec.name;
  row.batch_size = batch_size;

  auto engine = MakeEpochEngine(StreamConfig(), EpochAlgoSpec{}).ValueOrDie();
  if (!engine->Load(graph).ok()) return false;
  if (!engine->Run().ok()) return false;

  EdgeStreamOptions so;
  so.num_batches = kEpochsPerSize;
  so.batch_size = batch_size;
  so.delete_fraction = 0.2;
  so.seed = 0xBEEF ^ batch_size;
  for (const EdgeBatch& batch : GenerateEdgeStream(graph, so)) {
    EpochMetrics m;
    if (!engine->RunEpoch(batch, &m).ok()) return false;
    ApplyBatchToGraph(&graph, batch);
    row.epoch_io_bytes += static_cast<double>(m.read_bytes + m.write_bytes);
    row.epoch_wall_s += m.ingest_wall_s + m.converge_wall_s;
    row.epoch_supersteps += static_cast<double>(m.supersteps);
  }
  row.epoch_io_bytes /= kEpochsPerSize;
  row.epoch_wall_s /= kEpochsPerSize;
  row.epoch_supersteps /= kEpochsPerSize;

  if (!MeasureCold(graph, &row)) return false;
  std::printf("  %-6s batch=%5u  epoch: io=%11.0f wall=%7.3fs steps=%5.1f | "
              "cold: io=%11llu wall=%7.3fs steps=%llu\n",
              row.dataset.c_str(), row.batch_size, row.epoch_io_bytes,
              row.epoch_wall_s, row.epoch_supersteps,
              (unsigned long long)row.cold_io_bytes, row.cold_wall_s,
              (unsigned long long)row.cold_supersteps);
  rows->push_back(row);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_stream.json";
  PrintHeader("streaming epochs: delta propagation vs cold recompute",
              "streaming extension (not a paper figure)");

  bool ok = true;
  std::vector<Row> rows;
  for (const char* name : {"livej", "wiki"}) {
    const DatasetSpec spec = FindDataset(name).ValueOrDie();
    std::printf("%s (%llu vertices):\n", name,
                (unsigned long long)spec.num_vertices);
    for (uint32_t batch_size : kBatchSizes) {
      if (!MeasureStream(spec, batch_size, &rows)) {
        std::fprintf(stderr, "%s batch=%u failed\n", name, batch_size);
        ok = false;
      }
    }
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"stream\",\n"
               "  \"algo\": \"pagerank-delta\",\n"
               "  \"tolerance\": %g,\n"
               "  \"epochs_per_size\": %u,\n"
               "  \"rows\": [\n",
               kTolerance, kEpochsPerSize);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"batch_size\": %u, "
                 "\"epoch_io_bytes\": %.0f, \"epoch_wall_s\": %.6f, "
                 "\"epoch_supersteps\": %.2f, \"cold_io_bytes\": %llu, "
                 "\"cold_wall_s\": %.6f, \"cold_supersteps\": %llu}%s\n",
                 r.dataset.c_str(), r.batch_size, r.epoch_io_bytes,
                 r.epoch_wall_s, r.epoch_supersteps,
                 (unsigned long long)r.cold_io_bytes, r.cold_wall_s,
                 (unsigned long long)r.cold_supersteps,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!ok) return 1;

  // Hard acceptance: for the smallest batch size, delta epochs must beat
  // cold recompute on modeled I/O bytes AND wall clock, on every dataset.
  int failures = 0;
  for (const Row& r : rows) {
    if (r.batch_size != kBatchSizes[0]) continue;
    if (!(r.epoch_io_bytes < static_cast<double>(r.cold_io_bytes))) {
      std::fprintf(stderr,
                   "FAIL: %s batch=%u epoch io %.0f !< cold io %llu\n",
                   r.dataset.c_str(), r.batch_size, r.epoch_io_bytes,
                   (unsigned long long)r.cold_io_bytes);
      ++failures;
    }
    if (!(r.epoch_wall_s < r.cold_wall_s)) {
      std::fprintf(stderr,
                   "FAIL: %s batch=%u epoch wall %.3fs !< cold wall %.3fs\n",
                   r.dataset.c_str(), r.batch_size, r.epoch_wall_s,
                   r.cold_wall_s);
      ++failures;
    }
  }
  if (failures > 0) return 1;
  std::printf("acceptance: delta epochs beat cold recompute on io AND wall "
              "for batch=%u on all datasets\n",
              kBatchSizes[0]);
  return 0;
}
