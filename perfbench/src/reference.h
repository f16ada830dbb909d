// Independent single-threaded references the benchmark checks outputs
// against. They share no code with the engine.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "graph/edge_list.h"

namespace perfbench {

/// PageRank as the Pregel program defines it: superstep 0 broadcasts 1/n,
/// each of the remaining `supersteps - 1` recomputes every rank from the
/// in-neighbors' rank / out-degree (no dangling-mass redistribution).
inline std::vector<double> ReferencePageRank(const hybridgraph::EdgeListGraph& g,
                                             int supersteps, double damping = 0.85) {
  const uint64_t n = g.num_vertices;
  std::vector<uint32_t> out(n, 0);
  for (const auto& e : g.edges) ++out[e.src];
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> sum(n);
  for (int step = 1; step < supersteps; ++step) {
    std::fill(sum.begin(), sum.end(), 0.0);
    for (const auto& e : g.edges) sum[e.dst] += rank[e.src] / out[e.src];
    for (uint64_t v = 0; v < n; ++v) {
      rank[v] = (1.0 - damping) / static_cast<double>(n) + damping * sum[v];
    }
  }
  return rank;
}

/// Dijkstra distances from `source` (infinity when unreachable).
inline std::vector<double> ReferenceDijkstra(const hybridgraph::EdgeListGraph& g,
                                             hybridgraph::VertexId source) {
  const uint64_t n = g.num_vertices;
  std::vector<uint64_t> first(n + 1, 0);
  for (const auto& e : g.edges) ++first[e.src + 1];
  for (uint64_t v = 0; v < n; ++v) first[v + 1] += first[v];
  std::vector<std::pair<hybridgraph::VertexId, double>> adj(g.edges.size());
  std::vector<uint64_t> fill(first.begin(), first.end() - 1);
  for (const auto& e : g.edges) adj[fill[e.src]++] = {e.dst, e.weight};

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n, kInf);
  using Item = std::pair<double, hybridgraph::VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  dist[source] = 0.0;
  pq.push({0.0, source});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (uint64_t i = first[u]; i < first[u + 1]; ++i) {
      const double cand = d + adj[i].second;
      if (cand < dist[adj[i].first]) {
        dist[adj[i].first] = cand;
        pq.push({cand, adj[i].first});
      }
    }
  }
  return dist;
}

/// True when `got` matches `want` within |got - want| <= rel * |want| + abs
/// (infinities must match exactly).
inline bool Close(double got, double want, double rel, double abs) {
  if (std::isinf(want) || std::isinf(got)) return got == want;
  return std::fabs(got - want) <= rel * std::fabs(want) + abs;
}

}  // namespace perfbench
