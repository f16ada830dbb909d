// pr-bpull and pr-push-spill: fixed-length PageRank jobs under a limited
// message buffer, repeated until the run's time is used.
#include <memory>

#include "hybridgraph/any_engine.h"
#include "reference.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace hybridgraph;

namespace {

struct BatchSpec {
  const char* dataset;
  EngineMode mode;
};

// Fixed by the workload definitions; only the seed varies between runs.
constexpr int kSupersteps = 10;
constexpr uint32_t kNodes = 5;
constexpr uint32_t kThreads = 2;
constexpr uint64_t kMsgBuffer = 20000;
// Relative tolerance against the reference: the engine sums messages in
// another order (and combines them), so only rounding may differ.
constexpr double kRankRelTol = 1e-9;

// Everything one job measured.
struct Job {
  double gen_s = 0, load_s = 0, setup_s = 0, job_s = 0, cpu_s = 0;
  double consume_s = 0, update_s = 0, drain_s = 0, peak_rss_mb = 0;
  double probe_s = 0;  // ProbeSeconds() just before the job
  std::vector<double> superstep_ms;
  MetricSet counters;  // deterministic metrics only
};

// Runs one job: generate, load, kSupersteps timed supersteps, check.
Status RunJob(const RunOptions& opt, const BatchSpec& spec, const DatasetSpec& ds,
              int rep, SpanTrace* trace, std::vector<double>* reference, Job* job,
              RunResult* result, DeterminismGuard* guard) {
  const uint64_t root = trace->Open("bench.job", 0, "main");
  ResetPeakRss();
  const double t0 = NowSeconds();
  EdgeListGraph graph;
  {
    ScopedSpan s(trace, "graph.generate", root, "main");
    graph = BuildDataset(ds);
  }
  const double t1 = NowSeconds();

  JobConfig cfg;
  cfg.mode = spec.mode;
  cfg.num_nodes = kNodes;
  cfg.num_threads = kThreads;
  cfg.msg_buffer_per_node = kMsgBuffer;
  cfg.max_supersteps = kSupersteps;
  cfg.disk = DiskProfile::Hdd();
  if (trace->enabled()) {
    cfg.trace_path = opt.out_dir + "/lib-trace-" + opt.workload + "-" +
                     std::to_string(rep) + ".json";
  }
  std::unique_ptr<AnyEngine> engine;
  {
    ScopedSpan s(trace, "graph.load", root, "main");
    HG_ASSIGN_OR_RETURN(engine, MakeEngine(cfg, AlgoKind::kPageRank));
    HG_RETURN_IF_ERROR(engine->Load(graph));
  }
  const double t2 = NowSeconds();
  job->gen_s = t1 - t0;
  job->load_s = t2 - t1;
  job->setup_s = t2 - t0;

  std::vector<uint64_t> step_spans;
  const double cpu0 = ProcessCpuSeconds();
  const double t3 = NowSeconds();
  for (int k = 0; k < kSupersteps; ++k) {
    ScopedSpan s(trace, "core.superstep", root, "main");
    const double ts = NowSeconds();
    HG_RETURN_IF_ERROR(engine->RunSuperstep());
    job->superstep_ms.push_back(1e3 * (NowSeconds() - ts));
    step_spans.push_back(s.id());
  }
  job->job_s = NowSeconds() - t3;
  job->cpu_s = ProcessCpuSeconds() - cpu0;

  if (trace->enabled()) {
    // Run() at the superstep cap runs nothing more; it writes the library's
    // trace of the supersteps above.
    HG_RETURN_IF_ERROR(engine->Run());
    HG_RETURN_IF_ERROR(trace->ImportLibraryTrace(cfg.trace_path, step_spans));
  }

  const JobStats& st = engine->stats();
  for (const SuperstepMetrics& s : st.supersteps) {
    job->consume_s += s.phase_consume_wall_s;
    job->update_s += s.phase_update_wall_s;
    job->drain_s += s.phase_drain_wall_s;
  }
  MetricSet& c = job->counters;
  c.Set("modeled_s", st.modeled_seconds, 1);
  c.Set("io_bytes", static_cast<double>(st.TotalIoBytes()), 1);
  c.Set("net_bytes", static_cast<double>(st.TotalNetBytes()), 1);
  c.Set("graph.load_write_bytes", static_cast<double>(st.load.bytes_written), 1);
  c.Set("graph.fragments", static_cast<double>(st.load.total_fragments), 1);
  FoldSuperstepCounters(st.supersteps, 0, &c);

  // Correctness: the job ran exactly kSupersteps and every rank matches the
  // reference; the counters repeat the first job's exactly.
  ++result->attempted;
  std::vector<double> ranks;
  {
    ScopedSpan s(trace, "core.gather", root, "main");
    HG_ASSIGN_OR_RETURN(ranks, engine->GatherValuesAsDouble());
  }
  if (reference->empty()) *reference = ReferencePageRank(graph, kSupersteps);
  size_t bad = 0;
  for (size_t v = 0; v < ranks.size() && v < reference->size(); ++v) {
    if (!Close(ranks[v], (*reference)[v], kRankRelTol, 0.0)) ++bad;
  }
  if (st.supersteps_run != kSupersteps || ranks.size() != reference->size() || bad > 0) {
    result->Fail("job " + std::to_string(rep) + ": " + std::to_string(bad) +
                 " ranks differ from the reference (supersteps run " +
                 std::to_string(st.supersteps_run) + ")");
  }
  guard->Check(c.Deterministic(), GraphFingerprint(graph), result);
  job->peak_rss_mb = PeakRssMb();
  trace->Close(root);
  return Status::OK();
}

}  // namespace

Status RunBatchWorkload(const RunOptions& opt, RunResult* result) {
  const BatchSpec spec = opt.workload == "pr-bpull"
                             ? BatchSpec{"uk", EngineMode::kBPull}
                             : BatchSpec{"orkut", EngineMode::kPush};
  HG_ASSIGN_OR_RETURN(DatasetSpec ds, SeededDataset(spec.dataset, opt.seed));

  SpanTrace trace(opt.trace);
  SpanTrace untraced(false);
  DeterminismGuard guard;
  std::vector<double> reference;
  std::vector<Job> measured;    // traced jobs in a trace run, else all jobs
  std::vector<double> plain_job_s;  // untraced job times (trace overhead base)
  // Jobs repeat while the next one, at the average length of those before
  // it (set-up included), still ends within --seconds. Two measured jobs
  // give 2 x kSupersteps superstep samples, the fewest a p50 accepts; a
  // trace run alternates untraced and traced jobs.
  const double start = NowSeconds();
  for (int rep = 0;; ++rep) {
    const bool enough = measured.size() >= 2 && (!opt.trace || !plain_job_s.empty());
    const double elapsed = NowSeconds() - start;
    if (enough && elapsed + elapsed / rep > opt.seconds) break;
    const bool traced = opt.trace && rep % 2 == 1;
    Job job;
    job.probe_s = ProbeSeconds();
    HG_RETURN_IF_ERROR(RunJob(opt, spec, ds, rep, traced ? &trace : &untraced,
                              &reference, &job, result, &guard));
    if (!traced) plain_job_s.push_back(job.job_s * kProbeRefS / job.probe_s);
    if (traced || !opt.trace) measured.push_back(std::move(job));
  }

  auto col = [&](double Job::*field) {
    std::vector<double> v;
    for (const Job& j : measured) v.push_back(j.*field);
    return v;
  };
  // Job times at the reference host speed (kProbeRefS).
  auto scaled = [&](double Job::*field) {
    std::vector<double> v;
    for (const Job& j : measured) v.push_back(j.*field * kProbeRefS / j.probe_s);
    return v;
  };
  MetricSet& m = result->metrics;
  const size_t n = measured.size();
  const double job_s = Median(scaled(&Job::job_s));
  const double cpu_s = Median(scaled(&Job::cpu_s));
  for (const Job& j : measured) {
    result->reps["setup_s"].push_back(j.setup_s);
    result->reps["job_s"].push_back(j.job_s);
    result->reps["cpu_s"].push_back(j.cpu_s);
    result->reps["probe_s"].push_back(j.probe_s);
  }
  m.Set("setup_s", Median(scaled(&Job::setup_s)), n);
  m.Set("job_s", job_s, n);
  m.Set("cpu_s", cpu_s, n);
  m.Set("peak_rss_mb", Median(col(&Job::peak_rss_mb)), n);
  result->deterministic = guard.baseline();
  result->input_fingerprint = guard.fingerprint();
  for (const auto& [name, value] : result->deterministic) m.Set(name, value, 1);
  m.Set("graph.gen_s", Median(col(&Job::gen_s)), n);
  m.Set("graph.load_s", Median(col(&Job::load_s)), n);
  m.Set("core.consume_s", Median(col(&Job::consume_s)), n);
  m.Set("core.update_s", Median(col(&Job::update_s)), n);
  m.Set("core.drain_s", Median(col(&Job::drain_s)), n);
  m.Set("core.cpu_util", cpu_s / (job_s * kThreads), n);
  std::vector<double> steps;
  for (const Job& j : measured) {
    steps.insert(steps.end(), j.superstep_ms.begin(), j.superstep_ms.end());
  }
  HG_ASSIGN_OR_RETURN(double step_p50, Percentile(steps, 0.5));
  m.Set("core.superstep_ms_p50", step_p50, steps.size());
  if (opt.trace) {
    m.Set("trace.overhead_frac", job_s / Median(plain_job_s) - 1.0, n);
  }
  return FinishTrace(opt, trace, result);
}

}  // namespace perfbench
