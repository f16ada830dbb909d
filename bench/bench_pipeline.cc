// Overlapped-I/O pipeline bench: the paper's memory-limited HDD and SSD
// shapes with device read latency emulated by a storage.read delay
// fail-point, run with the prefetch pipeline off and on. Reports wall-clock
// and modeled columns side by side and HARD-FAILS unless the modeled I/O
// bytes, modeled seconds, and the hybrid mode/switch trace are bit-identical
// between the two runs — readahead may only move wall-clock time. Emits a
// machine-readable BENCH_pipeline.json (path overridable via argv[1]).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/failpoint.h"

using namespace hybridgraph;
using namespace hybridgraph::bench;

namespace {

struct Shape {
  const char* name;
  DiskProfile profile;
  uint32_t read_delay_us;  // emulated per-read device latency
};

struct Workload {
  AlgoKind algo;
  EngineMode mode;
};

struct RunResult {
  double wall_s = 0;
  double modeled_s = 0;
  uint64_t io_bytes = 0;
  uint64_t prefetch_scheduled = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_hit_bytes = 0;
  std::string mode_trace;  // "push,push*,b-pull,..." — '*' marks a switch
};

struct Row {
  std::string shape, workload;
  RunResult off, on;
};

Result<RunResult> RunOne(const EdgeListGraph& graph, const DatasetSpec& spec,
                         double shrink, const Shape& shape,
                         const Workload& wl, bool prefetch) {
  JobConfig cfg = LimitedMemoryConfig(spec, shrink, shape.profile);
  cfg.num_threads = 2;
  cfg.io.prefetch_depth = prefetch ? 8 : 0;

  FailPointRegistry::Instance().DisarmAll();
  FailPointSpec delay;
  delay.action = FailPointAction::kDelay;
  delay.delay_us = shape.read_delay_us;
  FailPointRegistry::Instance().Arm("storage.read", delay);

  const auto t0 = std::chrono::steady_clock::now();
  auto stats_r = RunAlgo(graph, wl.algo, wl.mode, cfg);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  FailPointRegistry::Instance().DisarmAll();
  if (!stats_r.ok()) return stats_r.status();
  const JobStats& stats = *stats_r;

  RunResult r;
  r.wall_s = wall;
  r.modeled_s = stats.modeled_seconds;
  r.io_bytes = stats.TotalIoBytes();
  for (const auto& s : stats.supersteps) {
    r.prefetch_scheduled += s.prefetch_scheduled;
    r.prefetch_hits += s.prefetch_hits;
    r.prefetch_hit_bytes += s.prefetch_hit_bytes;
    if (!r.mode_trace.empty()) r.mode_trace += ',';
    r.mode_trace += EngineModeName(s.mode);
    if (s.switched) r.mode_trace += '*';
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_pipeline.json";
  PrintHeader("bench_pipeline",
              "Overlapped I/O: compute/IO overlap on the mem-limited shapes");

  auto spec_r = FindDataset("livej");
  if (!spec_r.ok()) {
    std::fprintf(stderr, "dataset: %s\n", spec_r.status().ToString().c_str());
    return 1;
  }
  const DatasetSpec spec = *spec_r;
  const double shrink = ShrinkFor(spec);
  const EdgeListGraph& graph = CachedGraph(spec, shrink);

  const Shape shapes[] = {
      {"hdd", DiskProfile::Hdd(), 100},
      {"ssd", DiskProfile::Ssd(), 15},
  };
  const Workload workloads[] = {
      {AlgoKind::kPageRank, EngineMode::kPush},
      {AlgoKind::kPageRank, EngineMode::kBPull},
      {AlgoKind::kSssp, EngineMode::kHybrid},
  };

  std::printf("%-4s %-16s %11s %11s %8s %12s %12s %10s %8s\n", "disk",
              "workload", "wall_off_s", "wall_on_s", "speedup", "io_bytes",
              "modeled_s", "hits", "hit_MiB");
  std::vector<Row> rows;
  bool determinism_ok = true;
  for (const Shape& shape : shapes) {
    for (const Workload& wl : workloads) {
      Row row;
      row.shape = shape.name;
      row.workload = std::string(AlgoName(wl.algo)) + "/" +
                     EngineModeName(wl.mode);
      auto off = RunOne(graph, spec, shrink, shape, wl, false);
      auto on = RunOne(graph, spec, shrink, shape, wl, true);
      if (!off.ok() || !on.ok()) {
        std::fprintf(stderr, "%s %s failed: %s\n", shape.name,
                     row.workload.c_str(),
                     (!off.ok() ? off.status() : on.status())
                         .ToString()
                         .c_str());
        return 1;
      }
      row.off = *off;
      row.on = *on;

      // The contract: readahead moves wall-clock time ONLY. Any drift in the
      // modeled columns or the switch trace is a determinism bug.
      if (row.off.io_bytes != row.on.io_bytes ||
          row.off.modeled_s != row.on.modeled_s ||
          row.off.mode_trace != row.on.mode_trace) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION %s %s:\n"
                     "  io_bytes  off=%llu on=%llu\n"
                     "  modeled_s off=%.9g on=%.9g\n"
                     "  trace off=%s\n  trace on =%s\n",
                     shape.name, row.workload.c_str(),
                     (unsigned long long)row.off.io_bytes,
                     (unsigned long long)row.on.io_bytes, row.off.modeled_s,
                     row.on.modeled_s, row.off.mode_trace.c_str(),
                     row.on.mode_trace.c_str());
        determinism_ok = false;
      }
      std::printf("%-4s %-16s %11.3f %11.3f %7.2fx %12llu %12.4f %10llu %8.2f\n",
                  shape.name, row.workload.c_str(), row.off.wall_s,
                  row.on.wall_s, row.off.wall_s / row.on.wall_s,
                  (unsigned long long)row.on.io_bytes, row.on.modeled_s,
                  (unsigned long long)row.on.prefetch_hits,
                  double(row.on.prefetch_hit_bytes) / (1024.0 * 1024.0));
      rows.push_back(std::move(row));
    }
  }
  if (!determinism_ok) return 1;

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"pipeline\",\n  \"dataset\": \"livej\",\n"
               "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"disk\": \"%s\", \"workload\": \"%s\","
        " \"wall_off_s\": %.4f, \"wall_on_s\": %.4f,"
        " \"io_bytes\": %llu, \"modeled_s\": %.6f,"
        " \"prefetch_scheduled\": %llu, \"prefetch_hits\": %llu,"
        " \"prefetch_hit_bytes\": %llu, \"mode_trace\": \"%s\"}%s\n",
        r.shape.c_str(), r.workload.c_str(), r.off.wall_s, r.on.wall_s,
        (unsigned long long)r.on.io_bytes, r.on.modeled_s,
        (unsigned long long)r.on.prefetch_scheduled,
        (unsigned long long)r.on.prefetch_hits,
        (unsigned long long)r.on.prefetch_hit_bytes, r.on.mode_trace.c_str(),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf(
      "\nwrote %s\nmodeled io_bytes, modeled seconds and the mode/switch\n"
      "trace are asserted bit-identical with prefetch off vs on; wall-clock\n"
      "gain comes from staging the delayed device reads on the background\n"
      "I/O pool while compute drains the previous block.\n",
      out_path.c_str());
  return 0;
}
