// sssp-serve: SSSP epochs behind an in-process ServeServer on livej.
//
// A session loads the graph, converges snapshot 0, then one writer submits
// kEpochsPerSession insert-only batches in a closed loop (the next batch
// goes in once the previous epoch's snapshot is on the board) while one
// reader issues GET / TOPK / STATS over a loopback TcpTransport connection,
// also in a closed loop. A run holds a fixed number of sessions, each with
// its own seeded stream.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <random>
#include <thread>

#include "core/epoch_driver.h"
#include "net/tcp_transport.h"
#include "reference.h"
#include "serve/serve_server.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace hybridgraph;

namespace {

constexpr uint32_t kNodes = 2;
constexpr uint32_t kThreads = 1;
constexpr int kMaxSupersteps = 500;
constexpr uint64_t kCompactMinRuns = 4;
constexpr uint32_t kEpochsPerSession = 50;
// A run holds a fixed number of sessions, one per this many seconds of
// --seconds and at least four (two traced ones in a trace run give the 100
// epochs an epoch p90 needs). Fixed work per run keeps the modeled and
// counted metrics exact per seed; distinct streams per session make each
// run sample 50 x sessions distinct epochs.
constexpr double kSecondsPerSession = 5.0;
constexpr int kMinSessions = 4;
constexpr uint32_t kTopK = 10;
// Query mix, per 1000 calls: STATS is rare (it serializes every epoch's
// metrics under the server mutex), TOPK about one in ten, the rest GET.
constexpr uint64_t kStatsPerMille = 5;
constexpr uint64_t kTopKPerMille = 100;
// The reader pauses this long after each response. Without a pause the
// reader and the server's connection thread each keep a core busy, so the
// workload needs four busy threads on a four-core share of a shared host
// and its epoch and CPU times follow the scheduler more than the program.
constexpr std::chrono::microseconds kThinkTime{100};
// An epoch that takes this long means the server is stuck.
constexpr double kEpochTimeoutS = 60.0;
// The engine adds float weights in path order; Dijkstra adds in double.
constexpr double kDistRelTol = 1e-5;
constexpr double kDistAbsTol = 1e-5;

enum class Op : uint8_t { kGet, kTopK, kStats };

// One reader call, kept for checking after the session. Records are small
// and their log is reserved up front, so the log adds little to the peak
// RSS the session reports, and nearly the same amount every run.
struct Query {
  Op op = Op::kGet;
  bool decoded = false;
  uint16_t num_entries = 0;  // TOPK: entries at QueryLog::entries[first]
  uint32_t vertex_or_first = 0;
  uint64_t epoch = 0;
  double value = 0;
  double latency_us = 0;
};
constexpr size_t kQueryReserve = 1 << 18;

struct QueryLog {
  std::vector<Query> queries;
  std::vector<TopKEntry> entries;
};

// Everything one session measured.
struct Session {
  double gen_s = 0, load_s = 0, setup_s = 0, job_s = 0, cpu_s = 0;
  double probe_s = 0;  // ProbeSeconds() just before the session
  double consume_s = 0, update_s = 0, drain_s = 0, peak_rss_mb = 0;
  std::vector<double> epoch_ms, ingest_ms, converge_ms, publish_ms, superstep_ms;
  std::vector<double> epoch_supersteps, epoch_modeled_s, epoch_io_bytes, epoch_net_bytes;
  QueryLog log;  // freed once checked; the latencies below stay
  std::vector<double> get_us, topk_us, stats_us;
  size_t queries = 0, query_errors = 0;
  MetricSet counters;  // deterministic sums over the session's epochs
  uint64_t stream_fingerprint = 0;
};

uint32_t MaxOutDegreeVertex(const EdgeListGraph& g) {
  const std::vector<uint32_t> deg = g.OutDegrees();
  return static_cast<uint32_t>(std::max_element(deg.begin(), deg.end()) - deg.begin());
}

std::vector<TopKEntry> TopKOf(const Snapshot& snap, uint32_t k) {
  std::vector<uint32_t> ids(snap.values.size());
  for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const size_t n = std::min<size_t>(k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + n, ids.end(), [&](uint32_t a, uint32_t b) {
    if (snap.values[a] != snap.values[b]) return snap.values[a] > snap.values[b];
    return a < b;
  });
  std::vector<TopKEntry> out;
  for (size_t i = 0; i < n; ++i) out.push_back({ids[i], snap.values[ids[i]]});
  return out;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// The closed-loop reader: one call at a time on the (1 -> 0) channel, with
// kThinkTime between a response and the next call.
void ReadLoop(Transport* tcp, uint64_t seed, uint32_t num_vertices,
              const std::atomic<bool>* stop, SpanTrace* trace, uint64_t parent,
              QueryLog* out) {
  std::mt19937_64 rng(seed);
  Buffer req;
  std::vector<uint8_t> resp;
  while (!stop->load(std::memory_order_relaxed)) {
    Query q;
    const uint64_t pick = rng() % 1000;
    q.op = pick < kStatsPerMille ? Op::kStats
           : pick < kStatsPerMille + kTopKPerMille ? Op::kTopK
                                                   : Op::kGet;
    req.Clear();
    RpcMethod method = RpcMethod::kServeGet;
    const char* span = "net.get";
    if (q.op == Op::kGet) {
      q.vertex_or_first = static_cast<uint32_t>(rng() % num_vertices);
      EncodeGetRequest(q.vertex_or_first, &req);
    } else if (q.op == Op::kTopK) {
      EncodeTopKRequest(kTopK, &req);
      method = RpcMethod::kServeTopK;
      span = "net.topk";
    } else {
      method = RpcMethod::kServeStats;
      span = "net.stats";
    }
    const int64_t t0 = SteadyNowNs();
    const Status st = tcp->Call(1, 0, method, req.AsSlice(), &resp);
    const int64_t t1 = SteadyNowNs();
    trace->Add(span, parent, t0, t1, "reader");
    q.latency_us = 1e-3 * static_cast<double>(t1 - t0);
    if (st.ok()) {
      if (q.op == Op::kGet) {
        GetResponse r;
        q.decoded = DecodeGetResponse(Slice(resp), &r).ok();
        q.epoch = r.epoch;
        q.value = r.value;
      } else if (q.op == Op::kTopK) {
        TopKResponse r;
        q.decoded = DecodeTopKResponse(Slice(resp), &r).ok() && r.entries.size() <= kTopK;
        q.epoch = r.epoch;
        q.vertex_or_first = static_cast<uint32_t>(out->entries.size());
        q.num_entries = static_cast<uint16_t>(std::min<size_t>(r.entries.size(), kTopK));
        out->entries.insert(out->entries.end(), r.entries.begin(),
                            r.entries.begin() + q.num_entries);
      } else {
        StatsResponse r;
        q.decoded = DecodeStatsResponse(Slice(resp), &r).ok();
        q.epoch = r.snapshot_epoch;
      }
    }
    out->queries.push_back(q);
    std::this_thread::sleep_for(kThinkTime);
  }
}

// Checks every query against the snapshot it names, and the epoch order the
// reader observed.
void CheckQueries(const Session& s,
                  const std::vector<std::shared_ptr<const Snapshot>>& snaps,
                  RunResult* result) {
  std::vector<std::vector<TopKEntry>> topk(snaps.size());
  uint64_t last_epoch = 0;
  for (size_t i = 0; i < s.log.queries.size(); ++i) {
    const Query& q = s.log.queries[i];
    ++result->attempted;
    std::string bad;
    if (!q.decoded) {
      bad = "did not decode";
    } else if (q.epoch < last_epoch) {
      bad = "snapshot epoch went back from " + std::to_string(last_epoch);
    } else if (q.epoch >= snaps.size()) {
      bad = "names an epoch the writer never saw";
    } else if (q.op == Op::kGet) {
      if (!SameBits(q.value, snaps[q.epoch]->values[q.vertex_or_first])) bad = "wrong value";
    } else if (q.op == Op::kTopK) {
      if (topk[q.epoch].empty()) topk[q.epoch] = TopKOf(*snaps[q.epoch], kTopK);
      const auto& want = topk[q.epoch];
      const TopKEntry* got = s.log.entries.data() + q.vertex_or_first;
      bool same = want.size() == q.num_entries;
      for (size_t k = 0; same && k < want.size(); ++k) {
        same = want[k].vertex == got[k].vertex && SameBits(want[k].value, got[k].value);
      }
      if (!same) bad = "wrong top-k";
    }
    if (q.decoded && q.epoch > last_epoch) last_epoch = q.epoch;
    if (!bad.empty()) {
      result->Fail("query " + std::to_string(i) + " (epoch " + std::to_string(q.epoch) +
                   "): " + bad);
    }
  }
}

Status RunSession(const RunOptions& opt, uint32_t index, SpanTrace* trace,
                  DeterminismGuard* guard, Session* s, RunResult* result) {
  const uint64_t root = trace->Open("bench.session", 0, "writer");
  ResetPeakRss();
  const double t0 = NowSeconds();
  EdgeListGraph graph;
  std::vector<EdgeBatch> stream;
  {
    ScopedSpan sp(trace, "graph.generate", root, "writer");
    HG_ASSIGN_OR_RETURN(DatasetSpec ds, SeededDataset("livej", opt.seed));
    graph = BuildDataset(ds);
    stream = ServeStream(graph, opt.seed, index, kEpochsPerSession);
  }
  const double t1 = NowSeconds();
  const uint64_t graph_fingerprint = GraphFingerprint(graph);
  s->stream_fingerprint = StreamFingerprint(stream);

  JobConfig cfg;
  cfg.mode = EngineMode::kHybrid;
  cfg.num_nodes = kNodes;
  cfg.num_threads = kThreads;
  cfg.max_supersteps = kMaxSupersteps;
  cfg.disk = DiskProfile::Hdd();
  if (trace->enabled()) {
    cfg.trace_path = opt.out_dir + "/lib-trace-" + opt.workload + "-" +
                     std::to_string(index) + ".json";
  }
  EpochAlgoSpec algo;
  algo.name = "sssp";
  algo.source = MaxOutDegreeVertex(graph);
  std::unique_ptr<AnyEpochEngine> engine;
  {
    ScopedSpan sp(trace, "graph.load", root, "writer");
    HG_ASSIGN_OR_RETURN(engine, MakeEpochEngine(cfg, algo));
    HG_RETURN_IF_ERROR(engine->Load(graph));
  }
  const double t2 = NowSeconds();

  ServeServer::Options so;
  so.compact_min_runs = kCompactMinRuns;
  ServeServer server(engine.get(), so);
  TcpTransport::Options to;
  to.seed = opt.seed;
  TcpTransport tcp(2, to);
  server.RegisterHandlers(&tcp, 0);
  HG_RETURN_IF_ERROR(tcp.Start());
  std::vector<uint64_t> epoch_spans;
  {
    ScopedSpan sp(trace, "serve.start", root, "writer");
    HG_RETURN_IF_ERROR(server.Start());
    epoch_spans.push_back(sp.id());
  }
  const double t3 = NowSeconds();
  s->gen_s = t1 - t0;
  s->load_s = t2 - t1;
  s->setup_s = t3 - t0;

  // The cold initial convergence is the same in every session of a run.
  const JobStats& st = engine->stats();
  const size_t initial_supersteps = st.supersteps.size();
  MetricSet initial;
  initial.Set("modeled_s", st.modeled_seconds, 1);
  initial.Set("io_bytes", static_cast<double>(st.TotalIoBytes()), 1);
  initial.Set("net_bytes", static_cast<double>(st.TotalNetBytes()), 1);
  initial.Set("graph.load_write_bytes", static_cast<double>(st.load.bytes_written), 1);
  initial.Set("graph.fragments", static_cast<double>(st.load.total_fragments), 1);
  guard->Check(initial.Deterministic(), graph_fingerprint, result);

  std::vector<std::shared_ptr<const Snapshot>> snaps = {server.board().Current()};
  std::atomic<bool> stop{false};
  s->log.queries.reserve(kQueryReserve);
  s->log.entries.reserve(kQueryReserve);
  const double cpu0 = ProcessCpuSeconds();
  const double t4 = NowSeconds();
  std::thread reader(ReadLoop, &tcp, opt.seed * 1000003 + index,
                     static_cast<uint32_t>(graph.num_vertices), &stop, trace, root,
                     &s->log);
  Status writer_status;
  for (uint32_t i = 0; i < kEpochsPerSession && writer_status.ok(); ++i) {
    ScopedSpan sp(trace, "serve.epoch", root, "writer");
    const double ts = NowSeconds();
    {
      ScopedSpan sub(trace, "serve.submit", sp.id(), "writer");
      server.SubmitBatch(stream[i]);
    }
    std::shared_ptr<const Snapshot> snap = server.board().Current();
    while (snap->epoch < i + 1) {
      if (NowSeconds() - ts > kEpochTimeoutS) {
        writer_status = Status::Internal("epoch " + std::to_string(i) +
                                         " never became visible");
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      snap = server.board().Current();
    }
    s->epoch_ms.push_back(1e3 * (NowSeconds() - ts));
    snaps.push_back(std::move(snap));
    epoch_spans.push_back(sp.id());
  }
  stop.store(true);
  reader.join();
  s->job_s = NowSeconds() - t4;
  s->cpu_s = ProcessCpuSeconds() - cpu0;
  HG_RETURN_IF_ERROR(writer_status);
  HG_RETURN_IF_ERROR(server.WaitIdle());
  server.Stop();
  trace->Close(root);
  if (trace->enabled()) {
    HG_RETURN_IF_ERROR(trace->ImportLibraryTrace(cfg.trace_path, epoch_spans));
  }

  // Per-epoch breakdown from the server's EpochMetrics.
  const std::vector<EpochMetrics> em = server.metrics();
  if (em.size() != kEpochsPerSession) {
    return Status::Internal("server committed " + std::to_string(em.size()) +
                            " epochs, expected " + std::to_string(kEpochsPerSession));
  }
  uint64_t rd = 0, wr = 0, runs_max = 0;
  for (size_t i = 0; i < em.size(); ++i) {
    const EpochMetrics& e = em[i];
    s->ingest_ms.push_back(1e3 * e.ingest_wall_s);
    s->converge_ms.push_back(1e3 * e.converge_wall_s);
    s->publish_ms.push_back(s->epoch_ms[i] - 1e3 * (e.ingest_wall_s + e.converge_wall_s));
    s->epoch_supersteps.push_back(static_cast<double>(e.supersteps));
    s->epoch_modeled_s.push_back(e.modeled_seconds);
    s->epoch_io_bytes.push_back(static_cast<double>(e.read_bytes + e.write_bytes));
    s->epoch_net_bytes.push_back(static_cast<double>(e.net_bytes));
    rd += e.read_bytes;
    wr += e.write_bytes;
    runs_max = std::max(runs_max, e.delta_runs);
  }
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  MetricSet& c = s->counters;
  c.Set("io.epoch_read_bytes", d(rd), em.size());
  c.Set("io.epoch_write_bytes", d(wr), em.size());
  c.Set("graph.delta_runs_max", d(runs_max), em.size());
  c.Set("graph.load_write_bytes", d(st.load.bytes_written), 1);
  c.Set("graph.fragments", d(st.load.total_fragments), 1);
  FoldSuperstepCounters(st.supersteps, initial_supersteps, &c);
  for (size_t k = initial_supersteps; k < st.supersteps.size(); ++k) {
    const SuperstepMetrics& m = st.supersteps[k];
    s->consume_s += m.phase_consume_wall_s;
    s->update_s += m.phase_update_wall_s;
    s->drain_s += m.phase_drain_wall_s;
    s->superstep_ms.push_back(
        1e3 * (m.phase_consume_wall_s + m.phase_update_wall_s + m.phase_drain_wall_s));
  }

  // Correctness: each epoch became visible in order (checked above), the
  // final snapshot equals Dijkstra on the final mutated graph, and every
  // query matches the snapshot it names.
  result->attempted += em.size();
  for (const EdgeBatch& b : stream) {
    for (const EdgeDelta& e : b.deltas) {
      if (e.is_delete) return Status::Internal("sssp-serve stream must be insert-only");
      graph.edges.push_back({e.src, e.dst, e.weight});
    }
  }
  const std::vector<double> want = ReferenceDijkstra(graph, algo.source);
  const std::vector<double>& got = snaps.back()->values;
  size_t bad = got.size() == want.size() ? 0 : want.size();
  for (size_t v = 0; v < got.size() && v < want.size(); ++v) {
    if (!Close(got[v], want[v], kDistRelTol, kDistAbsTol)) ++bad;
  }
  if (bad > 0) {
    result->Fail("session " + std::to_string(index) + ": " + std::to_string(bad) +
                 " final distances differ from Dijkstra");
  }
  CheckQueries(*s, snaps, result);
  s->peak_rss_mb = PeakRssMb();
  for (const Query& q : s->log.queries) {
    (q.op == Op::kGet ? s->get_us : q.op == Op::kTopK ? s->topk_us : s->stats_us)
        .push_back(q.latency_us);
    s->query_errors += q.decoded ? 0 : 1;
  }
  s->queries = s->log.queries.size();
  s->log = QueryLog();
  return Status::OK();
}

// Folds the sessions' deterministic counters into run totals: sums, except
// maxima for the peak-type counts and the (shared) load counters. The
// end-to-end modeled_s, io_bytes and net_bytes are per epoch, as a trimmed
// mean over all the run's epochs: a few epochs whose inserts reach far cost
// several times the typical one, and their sum moved by 6-11% (quartile
// spread) from seed to seed where the trimmed mean moved by 2-5%.
Status FoldSessions(const std::vector<Session>& all, RunResult* result) {
  constexpr double kTrim = 0.1;
  std::map<std::string, double> total;
  std::vector<double> supersteps, modeled, io, net;
  uint64_t fp = result->input_fingerprint;
  for (const Session& s : all) {
    for (const auto& [name, value] : s.counters.Deterministic()) {
      const bool peak = name == "graph.delta_runs_max" || name == "io.spill_resident_peak" ||
                        name.rfind("graph.load", 0) == 0 || name == "graph.fragments";
      total[name] = peak ? std::max(total[name], value) : total[name] + value;
    }
    supersteps.insert(supersteps.end(), s.epoch_supersteps.begin(), s.epoch_supersteps.end());
    modeled.insert(modeled.end(), s.epoch_modeled_s.begin(), s.epoch_modeled_s.end());
    io.insert(io.end(), s.epoch_io_bytes.begin(), s.epoch_io_bytes.end());
    net.insert(net.end(), s.epoch_net_bytes.begin(), s.epoch_net_bytes.end());
    fp = Fnv1a(&s.stream_fingerprint, sizeof(s.stream_fingerprint), fp);
  }
  HG_ASSIGN_OR_RETURN(total["core.epoch_supersteps_p50"], Percentile(supersteps, 0.5));
  total["modeled_s"] = TrimmedMean(modeled, kTrim);
  total["io_bytes"] = TrimmedMean(io, kTrim);
  total["net_bytes"] = TrimmedMean(net, kTrim);
  result->deterministic = std::move(total);
  result->input_fingerprint = fp;
  return Status::OK();
}

}  // namespace

Status RunServeWorkload(const RunOptions& opt, RunResult* result) {
  SpanTrace trace(opt.trace);
  SpanTrace untraced(false);
  DeterminismGuard guard;
  std::vector<Session> all;
  std::vector<const Session*> measured;  // traced sessions in a trace run
  std::vector<double> plain_job_s;
  const uint32_t sessions = static_cast<uint32_t>(
      std::max<long>(kMinSessions, std::lround(opt.seconds / kSecondsPerSession)));
  all.reserve(sessions);
  for (uint32_t index = 0; index < sessions; ++index) {
    const bool traced = opt.trace && index % 2 == 1;
    all.emplace_back();
    all.back().probe_s = ProbeSeconds();
    HG_RETURN_IF_ERROR(RunSession(opt, index, traced ? &trace : &untraced, &guard,
                                  &all.back(), result));
    if (!traced) plain_job_s.push_back(all.back().job_s * kProbeRefS / all.back().probe_s);
  }
  for (size_t i = 0; i < all.size(); ++i) {
    if (!opt.trace || i % 2 == 1) measured.push_back(&all[i]);
  }
  result->input_fingerprint = guard.fingerprint();
  HG_RETURN_IF_ERROR(FoldSessions(all, result));

  auto col = [&](double Session::*field) {
    std::vector<double> v;
    for (const Session* s : measured) v.push_back(s->*field);
    return v;
  };
  // Session times at the reference host speed (kProbeRefS).
  auto scaled = [&](double Session::*field) {
    std::vector<double> v;
    for (const Session* s : measured) v.push_back(s->*field * kProbeRefS / s->probe_s);
    return v;
  };
  auto pool = [&](std::vector<double> Session::*field) {
    std::vector<double> v;
    for (const Session* s : measured) v.insert(v.end(), (s->*field).begin(), (s->*field).end());
    return v;
  };
  MetricSet& m = result->metrics;
  auto set_pct = [&](const char* name, const std::vector<double>& v, double q) -> Status {
    HG_ASSIGN_OR_RETURN(double p, Percentile(v, q));
    m.Set(name, p, v.size());
    return Status::OK();
  };
  const size_t n = measured.size();
  for (const Session* s : measured) {
    result->reps["setup_s"].push_back(s->setup_s);
    result->reps["job_s"].push_back(s->job_s);
    result->reps["cpu_s"].push_back(s->cpu_s);
    result->reps["probe_s"].push_back(s->probe_s);
  }
  const double job_s = Median(scaled(&Session::job_s));
  const double cpu_s = Median(scaled(&Session::cpu_s));
  m.Set("setup_s", Median(scaled(&Session::setup_s)), n);
  m.Set("job_s", job_s, n);
  m.Set("cpu_s", cpu_s, n);
  m.Set("peak_rss_mb", Median(col(&Session::peak_rss_mb)), n);
  for (const auto& [name, value] : result->deterministic) {
    const bool per_epoch = name == "core.epoch_supersteps_p50" || name == "modeled_s" ||
                           name == "io_bytes" || name == "net_bytes";
    m.Set(name, value, per_epoch ? all.size() * kEpochsPerSession : all.size());
  }
  HG_RETURN_IF_ERROR(set_pct("epoch_p50_ms", pool(&Session::epoch_ms), 0.5));
  HG_RETURN_IF_ERROR(set_pct("epoch_p90_ms", pool(&Session::epoch_ms), 0.9));
  HG_RETURN_IF_ERROR(set_pct("get_p50_us", pool(&Session::get_us), 0.5));
  HG_RETURN_IF_ERROR(set_pct("get_p99_us", pool(&Session::get_us), 0.99));
  HG_RETURN_IF_ERROR(set_pct("topk_p50_us", pool(&Session::topk_us), 0.5));
  HG_RETURN_IF_ERROR(set_pct("topk_p99_us", pool(&Session::topk_us), 0.99));

  m.Set("graph.gen_s", Median(col(&Session::gen_s)), n);
  m.Set("graph.load_s", Median(col(&Session::load_s)), n);
  HG_RETURN_IF_ERROR(set_pct("graph.ingest_ms_p50", pool(&Session::ingest_ms), 0.5));
  HG_RETURN_IF_ERROR(set_pct("graph.ingest_ms_p90", pool(&Session::ingest_ms), 0.9));
  HG_RETURN_IF_ERROR(set_pct("core.converge_ms_p50", pool(&Session::converge_ms), 0.5));
  HG_RETURN_IF_ERROR(set_pct("core.converge_ms_p90", pool(&Session::converge_ms), 0.9));
  HG_RETURN_IF_ERROR(set_pct("serve.publish_ms_p50", pool(&Session::publish_ms), 0.5));
  HG_RETURN_IF_ERROR(set_pct("core.superstep_ms_p50", pool(&Session::superstep_ms), 0.5));
  HG_RETURN_IF_ERROR(set_pct("serve.stats_us_p50", pool(&Session::stats_us), 0.5));
  m.Set("core.consume_s", Median(col(&Session::consume_s)), n);
  m.Set("core.update_s", Median(col(&Session::update_s)), n);
  m.Set("core.drain_s", Median(col(&Session::drain_s)), n);
  m.Set("core.cpu_util", cpu_s / (job_s * kThreads), n);
  size_t queries = 0, errors = 0;
  for (const Session* s : measured) {
    queries += s->queries;
    errors += s->query_errors;
  }
  m.Set("serve.queries", static_cast<double>(queries), n);
  m.Set("serve.query_errors", static_cast<double>(errors), n);
  if (opt.trace) {
    m.Set("trace.overhead_frac", job_s / Median(plain_job_s) - 1.0, n);
  }
  return FinishTrace(opt, trace, result);
}

}  // namespace perfbench
