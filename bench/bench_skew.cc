// Skew-armor bench: measures what the three skew defenses buy on a hotspot
// graph (16 mega-in-degree hubs at the front of the id range, so a uniform
// range partition also piles their out-degree onto node 0):
//
//   mirror    — vertex mirroring (mirror_degree_threshold): push-side
//               combines hub-bound messages into one record per (node, hub),
//               cutting net bytes.
//   balanced  — degree-balanced partitioner: splits node ranges by
//               out-degree weight, cutting per-node load imbalance.
//   armor     — both together.
//   dedup     — request–respond pull dedup under b-pull: one batched request
//               per node pair instead of one per (Vblock, node).
//
// Emits BENCH_skew.json (path overridable via argv[1]). The JSON is written
// before any hard-fail exit so a regression still leaves evidence behind.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace hybridgraph;
using namespace hybridgraph::bench;

namespace {

constexpr uint64_t kVertices = 20000;
constexpr double kAvgDegree = 8.0;
constexpr uint32_t kNumHubs = 16;
constexpr double kHubInFraction = 0.5;
constexpr uint32_t kHubOutDegree = 600;
constexpr uint64_t kSeed = 0x5EED;
// Hubs collect ~5000 in-edges each vs ~4.5 for background vertices, so this
// threshold selects exactly the hubs.
constexpr uint32_t kMirrorThreshold = 1000;

JobConfig BaseConfig() {
  JobConfig cfg;
  cfg.num_nodes = 5;
  cfg.memory_resident = true;
  cfg.msg_buffer_per_node = UINT64_MAX;
  cfg.vpull_vertex_cache = UINT64_MAX;
  return cfg;
}

struct Row {
  std::string name;
  uint64_t net_bytes = 0;
  uint64_t messages = 0;
  uint64_t pull_requests = 0;
  double msg_imbalance = 0;
  double edge_imbalance = 0;
};

Row Measure(const std::string& name, const EdgeListGraph& graph, AlgoKind algo,
            EngineMode mode, const JobConfig& cfg, bool* ok) {
  auto r = RunAlgo(graph, algo, mode, cfg);
  Row row;
  row.name = name;
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                 r.status().ToString().c_str());
    *ok = false;
    return row;
  }
  const JobStats& s = *r;
  row.net_bytes = s.TotalNetBytes();
  row.messages = s.TotalMessages();
  row.pull_requests = s.TotalPullRequests();
  row.msg_imbalance = s.MaxMsgImbalance();
  row.edge_imbalance = s.MaxEdgeImbalance();
  std::printf("  %-18s net=%10llu msgs=%9llu pull_reqs=%6llu "
              "msg_imb=%.3f edge_imb=%.3f\n",
              name.c_str(), (unsigned long long)row.net_bytes,
              (unsigned long long)row.messages,
              (unsigned long long)row.pull_requests, row.msg_imbalance,
              row.edge_imbalance);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_skew.json";
  PrintHeader("skew armor: mirroring / balanced partition / pull dedup",
              "hotspot stress (not a paper figure)");
  const EdgeListGraph graph = GenerateHotspot(
      kVertices, kAvgDegree, kNumHubs, kHubInFraction, kHubOutDegree, kSeed);
  std::printf("hotspot graph: %llu vertices, %llu edges, %u hubs\n",
              (unsigned long long)graph.num_vertices,
              (unsigned long long)graph.num_edges(), kNumHubs);

  bool ok = true;
  std::vector<Row> rows;

  // PageRank under push: hub fan-in is the stress; mirroring folds it.
  {
    JobConfig cfg = BaseConfig();
    rows.push_back(
        Measure("pr/baseline", graph, AlgoKind::kPageRank, EngineMode::kPush,
                cfg, &ok));
    cfg.mirror_degree_threshold = kMirrorThreshold;
    rows.push_back(
        Measure("pr/mirror", graph, AlgoKind::kPageRank, EngineMode::kPush,
                cfg, &ok));
    cfg.mirror_degree_threshold = 0;
    cfg.degree_balanced_partition = true;
    rows.push_back(
        Measure("pr/balanced", graph, AlgoKind::kPageRank, EngineMode::kPush,
                cfg, &ok));
    cfg.mirror_degree_threshold = kMirrorThreshold;
    rows.push_back(
        Measure("pr/armor", graph, AlgoKind::kPageRank, EngineMode::kPush, cfg,
                &ok));
  }

  // SSSP under b-pull: request–respond dedup collapses per-Vblock requests.
  // Memory-resident runs derive a single Vblock per node (one request per
  // node pair already), so pin a realistic Vblock count to expose the
  // per-(Vblock, node) round-trip cost the dedup removes.
  {
    JobConfig cfg = BaseConfig();
    cfg.vblocks_per_node = 8;
    rows.push_back(
        Measure("sssp/legacy-pull", graph, AlgoKind::kSssp, EngineMode::kBPull,
                cfg, &ok));
    cfg.request_respond_dedup = true;
    rows.push_back(
        Measure("sssp/dedup-pull", graph, AlgoKind::kSssp, EngineMode::kBPull,
                cfg, &ok));
  }

  auto find = [&](const std::string& name) -> const Row& {
    for (const auto& r : rows) {
      if (r.name == name) return r;
    }
    static Row missing;
    return missing;
  };

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"skew\",\n"
               "  \"graph\": {\"vertices\": %llu, \"edges\": %llu, "
               "\"hubs\": %u, \"hub_in_fraction\": %.2f, "
               "\"hub_out_degree\": %u, \"seed\": %llu},\n"
               "  \"mirror_threshold\": %u,\n"
               "  \"rows\": [\n",
               (unsigned long long)graph.num_vertices,
               (unsigned long long)graph.num_edges(), kNumHubs, kHubInFraction,
               kHubOutDegree, (unsigned long long)kSeed, kMirrorThreshold);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"net_bytes\": %llu, "
                 "\"messages\": %llu, \"pull_requests\": %llu, "
                 "\"msg_imbalance\": %.6f, \"edge_imbalance\": %.6f}%s\n",
                 r.name.c_str(), (unsigned long long)r.net_bytes,
                 (unsigned long long)r.messages,
                 (unsigned long long)r.pull_requests, r.msg_imbalance,
                 r.edge_imbalance, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!ok) return 1;

  // Hard acceptance checks — the armor has to actually pay off.
  const Row& base = find("pr/baseline");
  const Row& mirror = find("pr/mirror");
  const Row& armor = find("pr/armor");
  const Row& legacy = find("sssp/legacy-pull");
  const Row& dedup = find("sssp/dedup-pull");
  int failures = 0;
  if (!(mirror.net_bytes < base.net_bytes)) {
    std::fprintf(stderr, "FAIL: mirroring did not reduce net bytes "
                 "(%llu vs %llu)\n",
                 (unsigned long long)mirror.net_bytes,
                 (unsigned long long)base.net_bytes);
    ++failures;
  }
  if (!(armor.msg_imbalance < base.msg_imbalance)) {
    std::fprintf(stderr, "FAIL: armor did not reduce msg imbalance "
                 "(%.3f vs %.3f)\n", armor.msg_imbalance, base.msg_imbalance);
    ++failures;
  }
  if (!(dedup.pull_requests < legacy.pull_requests)) {
    std::fprintf(stderr, "FAIL: dedup did not reduce pull requests "
                 "(%llu vs %llu)\n",
                 (unsigned long long)dedup.pull_requests,
                 (unsigned long long)legacy.pull_requests);
    ++failures;
  }
  if (dedup.messages != legacy.messages) {
    std::fprintf(stderr, "FAIL: dedup changed message totals "
                 "(%llu vs %llu)\n",
                 (unsigned long long)dedup.messages,
                 (unsigned long long)legacy.messages);
    ++failures;
  }
  if (failures > 0) return 1;
  std::printf("skew armor holds: mirror cuts net bytes, armor cuts "
              "imbalance, dedup cuts round trips\n");
  return 0;
}
