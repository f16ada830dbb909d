// The benchmark's three workloads, driven only through the library's public
// calls (BuildDataset, GenerateEdgeStream, MakeEngine / AnyEngine,
// MakeEpochEngine / ServeServer, and the kServe* RPCs over TcpTransport).
//
//   pr-bpull       PageRank, b-pull, uk model, limited buffer: the paper's
//                  own path; time goes to the pull serving in consume.
//   pr-push-spill  PageRank, push, orkut model, same buffer: the Giraph
//                  baseline; the receiver spills and sort-merges.
//   sssp-serve     SSSP epochs behind an in-process ServeServer on livej,
//                  one closed-loop writer and one closed-loop TCP reader.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/edge_delta.h"
#include "graph/edge_list.h"
#include "graph/generator.h"
#include "core/run_metrics.h"
#include "metrics.h"
#include "span_trace.h"
#include "util/status.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  ///< timed work to measure, summed over repetitions
  bool trace = false;   ///< per-layer run: alternate traced and untraced reps
  std::string out_dir = ".";
};

struct RunResult {
  MetricSet metrics;
  uint64_t attempted = 0;  ///< operations whose output was checked
  uint64_t failed = 0;     ///< checked operations that were wrong
  std::vector<std::string> errors;
  /// Deterministic metrics and input fingerprints of the first repetition;
  /// every later repetition must match them exactly.
  std::map<std::string, double> deterministic;
  uint64_t input_fingerprint = 0;
  /// Per-repetition samples behind the repetition medians (setup_s,
  /// job_s, cpu_s), in run order, for the report.
  std::map<std::string, std::vector<double>> reps;
  std::vector<SpanTotals> spans;  ///< traced runs only
  std::string trace_file;         ///< traced runs only

  void Fail(const std::string& what);
};

/// Runs `options.workload`. A returned error means the run could not be
/// carried out; wrong outputs are counted in `result` instead.
hybridgraph::Status RunWorkload(const RunOptions& options, RunResult* result);

// ---- shared by the workloads and the tests --------------------------------

/// The catalog dataset with its generator seed replaced by the workload seed.
hybridgraph::Result<hybridgraph::DatasetSpec> SeededDataset(const std::string& name,
                                                            uint64_t seed);

/// The edge stream of sssp-serve session `session`: insert-only batches of
/// 64 edges. Each session of a run gets its own stream, so a run samples
/// more distinct epochs than one session holds.
std::vector<hybridgraph::EdgeBatch> ServeStream(const hybridgraph::EdgeListGraph& base,
                                                uint64_t seed, uint32_t session,
                                                uint32_t batches);

uint64_t GraphFingerprint(const hybridgraph::EdgeListGraph& g);
uint64_t StreamFingerprint(const std::vector<hybridgraph::EdgeBatch>& stream);

/// Sets the io.*, net.* and core.* per-layer counters to their totals over
/// `steps[first..]` (maximum for io.spill_resident_peak).
void FoldSuperstepCounters(const std::vector<hybridgraph::SuperstepMetrics>& steps,
                           size_t first, MetricSet* m);

/// Compares each repetition's deterministic metrics with the first one's.
class DeterminismGuard {
 public:
  /// Records `rep` (and the input fingerprint) as the baseline on the first
  /// call; afterwards fails `result` on any drift.
  void Check(const std::map<std::string, double>& rep, uint64_t fingerprint,
             RunResult* result);
  const std::map<std::string, double>& baseline() const { return baseline_; }
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  bool have_ = false;
  std::map<std::string, double> baseline_;
  uint64_t fingerprint_ = 0;
};

/// Writes the traced run's spans to `out_dir` and their per-name totals to
/// `result` (no-op for an untraced run).
hybridgraph::Status FinishTrace(const RunOptions& options, const SpanTrace& trace,
                                RunResult* result);

hybridgraph::Status RunBatchWorkload(const RunOptions& options, RunResult* result);
hybridgraph::Status RunServeWorkload(const RunOptions& options, RunResult* result);

}  // namespace perfbench
