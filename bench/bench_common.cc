#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace hybridgraph {
namespace bench {

const char* AlgoName(AlgoKind algo) {
  switch (algo) {
    case AlgoKind::kPageRank:
      return "PageRank";
    case AlgoKind::kSssp:
      return "SSSP";
    case AlgoKind::kLpa:
      return "LPA";
    case AlgoKind::kSa:
      return "SA";
    default:
      break;
  }
  return "?";
}

int MaxSuperstepsFor(AlgoKind algo) {
  switch (algo) {
    case AlgoKind::kPageRank:
      return 5;  // the paper reports 5-superstep averages
    case AlgoKind::kSssp:
      return 100;  // convergence cap
    case AlgoKind::kLpa:
      return 5;
    case AlgoKind::kSa:
      return 50;
    default:
      break;
  }
  return 10;
}

double ShrinkFor(const DatasetSpec& spec) {
  if (std::getenv("HG_BENCH_FULL") != nullptr) return 1.0;
  // Keep the big models quick on a single core.
  return spec.num_vertices > 30000 ? 4.0 : 1.0;
}

const EdgeListGraph& CachedGraph(const DatasetSpec& spec, double shrink) {
  static std::map<std::pair<std::string, int>, EdgeListGraph> cache;
  const auto key = std::make_pair(spec.name, static_cast<int>(shrink * 16));
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  DatasetSpec scaled = spec;
  scaled.num_vertices =
      std::max<uint64_t>(1000, static_cast<uint64_t>(spec.num_vertices / shrink));
  return cache.emplace(key, BuildDataset(scaled)).first->second;
}

uint64_t ScaledBuffer(const DatasetSpec& spec, double shrink) {
  // Paper: B_i = 0.5M messages (livej/wiki/orkut), 1M (twi), 2M (fri/uk).
  double paper_bi = 0.5e6;
  if (spec.name == "twi") paper_bi = 1e6;
  if (spec.name == "fri" || spec.name == "uk") paper_bi = 2e6;
  return std::max<uint64_t>(64, static_cast<uint64_t>(
                                    paper_bi / spec.scale / shrink));
}

uint64_t ScaledVertexCache(const DatasetSpec& spec, double shrink) {
  // Paper: 2.5M vertices for GraphLab PowerGraph (>70% resident on the small
  // graphs).
  return std::max<uint64_t>(
      64, static_cast<uint64_t>(2.5e6 / spec.scale / shrink));
}

JobConfig LimitedMemoryConfig(const DatasetSpec& spec, double shrink,
                              DiskProfile disk) {
  JobConfig cfg;
  cfg.num_nodes = spec.default_nodes;
  cfg.msg_buffer_per_node = ScaledBuffer(spec, shrink);
  cfg.vpull_vertex_cache = ScaledVertexCache(spec, shrink);
  cfg.disk = disk;
  cfg.net = disk.name == "ssd" ? NetProfile::AmazonGigabit()
                               : NetProfile::LocalGigabit();
  if (disk.name == "ssd") cfg.cpu.scale = 2.0;  // amazon vCPUs (Sec 6.1)
  return cfg;
}

JobConfig SufficientMemoryConfig(const DatasetSpec& spec, double shrink) {
  JobConfig cfg;
  cfg.num_nodes = spec.default_nodes;
  cfg.memory_resident = true;
  cfg.msg_buffer_per_node = UINT64_MAX;
  cfg.vpull_vertex_cache = UINT64_MAX;
  (void)shrink;
  return cfg;
}

bool ModeSupports(AlgoKind algo, EngineMode mode) {
  if (mode == EngineMode::kPushM) {
    // combinable only
    return algo == AlgoKind::kPageRank || algo == AlgoKind::kSssp;
  }
  return true;
}

Result<JobStats> RunAlgo(const EdgeListGraph& graph, AlgoKind algo,
                         EngineMode mode, JobConfig cfg) {
  if (cfg.max_supersteps == 30) {  // caller left the default
    cfg.max_supersteps = MaxSuperstepsFor(algo);
  }
  cfg.mode = mode;
  AlgoSpec spec;
  // MakeEngine defaults the SSSP source to the max out-degree vertex, so the
  // traversal covers the graph even on scale models that leave many vertices
  // with zero out-degree.
  spec.kind = algo;
  if (algo == AlgoKind::kSa) spec.sa_source_stride = 500;
  HG_ASSIGN_OR_RETURN(std::unique_ptr<AnyEngine> engine,
                      MakeEngine(cfg, spec));
  HG_RETURN_IF_ERROR(engine->Load(graph));
  HG_RETURN_IF_ERROR(engine->Run());
  return engine->stats();
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("datasets are Table-4 scale models (~1/200 small, ~1/1000 big%s)\n",
              std::getenv("HG_BENCH_FULL") ? "" : "; big models shrunk 4x more,"
              " set HG_BENCH_FULL=1 for full models");
  std::printf("modeled runtimes use the HDD/SSD profiles of Table 3\n");
  std::printf("==============================================================\n");
}

}  // namespace bench
}  // namespace hybridgraph
