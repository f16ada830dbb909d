// hg_run — command-line driver for HybridGraph jobs.
//
// Examples:
//   hg_run --graph dataset:livej --algo pagerank --mode hybrid --supersteps 10
//   hg_run --graph my_edges.txt --algo sssp --mode bpull --nodes 8
//          --buffer 5000 --csv run.csv --trace
//   hg_run --graph dataset:twi --algo sssp --mode hybrid --disk ssd --threads 0
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/metrics_csv.h"
#include "hybridgraph/hybridgraph.h"

using namespace hybridgraph;

namespace {

struct Options {
  std::string graph;
  std::string algo = "pagerank";
  std::string mode = "hybrid";
  std::string disk = "hdd";
  std::string csv;
  std::string trace_json;
  uint32_t nodes = 5;
  uint32_t threads = 1;
  uint64_t buffer = UINT64_MAX;
  uint64_t vertex_cache = UINT64_MAX;
  uint32_t prefetch_depth = 0;
  uint64_t prefetch_budget = 0;
  bool prefetch_budget_set = false;
  int supersteps = 10;
  VertexId source = 0;
  bool source_set = false;
  bool memory_resident = false;
  bool trace = false;
  bool tcp = false;
  uint32_t tcp_timeout_ms = 5000;
  uint32_t tcp_retries = 3;
  std::string failpoints;
  uint32_t mirror_threshold = 0;
  bool degree_balanced = false;
  bool pull_dedup = false;
  uint32_t ghp_max_local_iters = 10;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: hg_run --graph <file|dataset:NAME> [options]\n"
      "  --algo pagerank|pagerank-delta|sssp|bfs|lpa|sa|wcc   (default pagerank)\n"
      "  --mode %s  (default hybrid)\n"
      "  --ghp-max-local-iters N  graphhp: cap on intra-superstep local\n"
      "                     sub-iterations of inner vertices   (default 10)\n"
      "  --nodes N          simulated computational nodes      (default 5)\n"
      "  --threads N        worker threads, 0 = all cores      (default 1)\n"
      "  --buffer N         message buffer B_i per node        (default: unlimited)\n"
      "  --vertex-cache N   v-pull LRU vertex cache per node\n"
      "  --prefetch-depth N overlapped-I/O readahead depth, 0 = off (default 0)\n"
      "  --prefetch-budget B readahead byte budget per node      (default 4MiB)\n"
      "  --supersteps N     superstep cap                      (default 10)\n"
      "  --source V         SSSP/BFS source vertex             (default: max out-degree)\n"
      "  --disk hdd|ssd     device profile                     (default hdd)\n"
      "  --memory           memory-resident scenario (no modeled I/O)\n"
      "  --csv FILE         write per-superstep metrics as CSV\n"
      "  --trace            print the per-superstep table\n"
      "  --trace-json FILE  write per-phase spans as chrome://tracing JSON\n"
      "  --tcp              run the frame protocol over loopback TCP\n"
      "  --tcp-timeout MS   per-call deadline, TCP only          (default 5000)\n"
      "  --tcp-retries N    retry attempts beyond the first      (default 3)\n"
      "  --failpoints SPEC  arm fail-points, e.g. 'storage.write=error:p=0.01'\n"
      "                     (also read from the HG_FAILPOINTS env var)\n"
      "  --mirror-threshold N  mirror vertices with in-degree >= N (push/\n"
      "                     adaptive, combinable algos only; 0 = off)\n"
      "  --degree-balanced  partition by out-degree weight instead of evenly\n"
      "  --pull-dedup       one batched pull round trip per node pair\n"
      "datasets: livej wiki orkut twi fri uk (paper Table 4 scale models)\n",
      EngineModeNameList().c_str());
}

Result<EngineMode> ParseMode(const std::string& s) {
  // The mode table in job_config.cc is the source of truth: new modes appear
  // in parsing and in the "unknown mode" enumeration automatically.
  EngineMode mode;
  HG_RETURN_IF_ERROR(ParseEngineMode(s, &mode));
  return mode;
}

Result<EdgeListGraph> LoadGraph(const std::string& spec) {
  const std::string prefix = "dataset:";
  if (spec.rfind(prefix, 0) == 0) {
    HG_ASSIGN_OR_RETURN(DatasetSpec ds, FindDataset(spec.substr(prefix.size())));
    return BuildDataset(ds);
  }
  return LoadEdgeListFile(spec);
}

void PrintTrace(const JobStats& stats) {
  std::printf("%4s %8s %10s %12s %12s %12s %10s\n", "t", "mode", "responding",
              "messages", "io_bytes", "net_bytes", "seconds");
  for (const auto& s : stats.supersteps) {
    std::printf("%4d %8s %10llu %12llu %12llu %12llu %10.5f%s\n", s.superstep,
                EngineModeName(s.mode),
                (unsigned long long)s.responding_vertices,
                (unsigned long long)s.messages_produced,
                (unsigned long long)s.io.Total(),
                (unsigned long long)s.net_bytes, s.superstep_seconds,
                s.switched ? "  <-- switch" : "");
  }
}

int RunJob(const Options& opt, const EdgeListGraph& graph, EngineMode mode,
           AlgoKind algo) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = opt.nodes;
  cfg.num_threads = opt.threads;
  cfg.msg_buffer_per_node = opt.buffer;
  cfg.vpull_vertex_cache = opt.vertex_cache;
  cfg.io.prefetch_depth = opt.prefetch_depth;
  if (opt.prefetch_budget_set) cfg.io.prefetch_budget_bytes = opt.prefetch_budget;
  cfg.max_supersteps = opt.supersteps;
  cfg.memory_resident = opt.memory_resident;
  cfg.disk = opt.disk == "ssd" ? DiskProfile::Ssd() : DiskProfile::Hdd();
  if (opt.tcp) cfg.transport = TransportKind::kTcp;
  cfg.tcp_call_timeout_ms = opt.tcp_timeout_ms;
  cfg.tcp_max_retries = opt.tcp_retries;
  cfg.trace_path = opt.trace_json;
  cfg.mirror_degree_threshold = opt.mirror_threshold;
  cfg.degree_balanced_partition = opt.degree_balanced;
  cfg.request_respond_dedup = opt.pull_dedup;
  cfg.ghp_max_local_iters = opt.ghp_max_local_iters;
  cfg.failpoints = opt.failpoints;
  if (cfg.failpoints.empty()) {
    if (const char* env = std::getenv("HG_FAILPOINTS")) cfg.failpoints = env;
  }

  AlgoSpec spec;
  spec.kind = algo;
  spec.source = opt.source;
  spec.source_set = opt.source_set;

  auto engine_r = MakeEngine(cfg, spec);
  if (!engine_r.ok()) {
    std::fprintf(stderr, "cannot build engine: %s\n",
                 engine_r.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<AnyEngine> engine = std::move(*engine_r);
  Status st = engine->Load(graph);
  if (st.ok()) st = engine->Run();
  if (!st.ok()) {
    std::fprintf(stderr, "job failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const JobStats& stats = engine->stats();
  std::printf("%s\n", stats.Summary().c_str());
  if (opt.trace) PrintTrace(stats);
  if (!opt.csv.empty()) {
    Status cs = WriteSuperstepCsv(stats, opt.csv);
    if (!cs.ok()) {
      std::fprintf(stderr, "csv write failed: %s\n", cs.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", opt.csv.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--graph") {
      opt.graph = next();
    } else if (arg == "--algo") {
      opt.algo = next();
    } else if (arg == "--mode") {
      opt.mode = next();
    } else if (arg == "--nodes") {
      opt.nodes = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--threads") {
      opt.threads = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--buffer") {
      opt.buffer = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--vertex-cache") {
      opt.vertex_cache = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--prefetch-depth") {
      opt.prefetch_depth =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--prefetch-budget") {
      opt.prefetch_budget = std::strtoull(next(), nullptr, 10);
      opt.prefetch_budget_set = true;
    } else if (arg == "--supersteps") {
      opt.supersteps = std::atoi(next());
    } else if (arg == "--source") {
      opt.source = static_cast<VertexId>(std::strtoul(next(), nullptr, 10));
      opt.source_set = true;
    } else if (arg == "--disk") {
      opt.disk = next();
    } else if (arg == "--csv") {
      opt.csv = next();
    } else if (arg == "--memory") {
      opt.memory_resident = true;
    } else if (arg == "--tcp") {
      opt.tcp = true;
    } else if (arg == "--tcp-timeout") {
      opt.tcp_timeout_ms = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--tcp-retries") {
      opt.tcp_retries = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--mirror-threshold") {
      opt.mirror_threshold =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--degree-balanced") {
      opt.degree_balanced = true;
    } else if (arg == "--pull-dedup") {
      opt.pull_dedup = true;
    } else if (arg == "--ghp-max-local-iters") {
      opt.ghp_max_local_iters =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--failpoints") {
      opt.failpoints = next();
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--trace-json") {
      opt.trace_json = next();
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }
  if (opt.graph.empty()) {
    Usage();
    return 2;
  }

  auto graph_r = LoadGraph(opt.graph);
  if (!graph_r.ok()) {
    std::fprintf(stderr, "cannot load graph: %s\n",
                 graph_r.status().ToString().c_str());
    return 1;
  }
  const EdgeListGraph& graph = *graph_r;
  std::printf("graph: %llu vertices, %llu edges\n",
              (unsigned long long)graph.num_vertices,
              (unsigned long long)graph.num_edges());

  auto mode_r = ParseMode(opt.mode);
  if (!mode_r.ok()) {
    std::fprintf(stderr, "%s\n", mode_r.status().ToString().c_str());
    return 2;
  }
  auto algo_r = ParseAlgoKind(opt.algo);
  if (!algo_r.ok()) {
    std::fprintf(stderr, "%s\n", algo_r.status().ToString().c_str());
    return 2;
  }
  return RunJob(opt, graph, *mode_r, *algo_r);
}
