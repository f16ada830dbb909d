#include "graph/partition.h"

#include <algorithm>

#include "util/string_util.h"

namespace hybridgraph {

namespace {

// Cuts [begin, end) into `parts` contiguous pieces by weight prefix sum
// (`at(v)` is the weight of vertices [0, v)): each cut targets the ceiling
// of the remaining weight over the remaining parts, clamped so every part
// keeps >= 1 vertex while vertices last (the tail parts go empty only when
// the range runs out). With unit weights this is ceil-of-remaining vertex
// counts: sizes differ by at most one, the extras going to the first parts.
template <typename At>
std::vector<uint64_t> SplitByWeight(const At& at, uint64_t begin, uint64_t end,
                                    uint32_t parts) {
  std::vector<uint64_t> bounds(parts + 1);
  bounds[0] = begin;
  uint64_t cur = begin;
  for (uint32_t i = 1; i < parts; ++i) {
    const uint32_t parts_left = parts - (i - 1);
    const uint64_t verts_left = end - cur;
    uint64_t next;
    if (verts_left <= parts_left) {
      next = cur + (verts_left > 0 ? 1 : 0);
    } else {
      const uint64_t weight_left = at(end) - at(cur);
      const uint64_t target =
          at(cur) + (weight_left + parts_left - 1) / parts_left;
      // The first v in (cur, end) with at(v) >= target, else end.
      uint64_t lo = cur + 1, hi = end;
      while (lo < hi) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (at(mid) < target) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      next = std::min(lo, end - (parts_left - 1));
      next = std::max(next, cur + 1);
    }
    bounds[i] = next;
    cur = next;
  }
  bounds[parts] = end;
  return bounds;
}

}  // namespace

Result<RangePartition> RangePartition::Split(
    uint64_t num_vertices, uint32_t num_nodes,
    const std::vector<uint32_t>& vblocks_per_node,
    const std::vector<uint64_t>* prefix) {
  if (num_nodes == 0) return Status::InvalidArgument("need at least one node");
  if (vblocks_per_node.size() != num_nodes) {
    return Status::InvalidArgument("vblocks_per_node size != num_nodes");
  }
  if (num_vertices > UINT32_MAX) {
    return Status::InvalidArgument("vertex id space exceeds 32 bits");
  }
  for (uint32_t vb : vblocks_per_node) {
    if (vb == 0) return Status::InvalidArgument("every node needs >=1 Vblock");
  }
  const auto at = [prefix](uint64_t v) { return prefix ? (*prefix)[v] : v; };

  RangePartition p;
  p.num_vertices_ = num_vertices;
  p.num_nodes_ = num_nodes;

  const std::vector<uint64_t> node_bounds =
      SplitByWeight(at, 0, num_vertices, num_nodes);
  p.node_begin_.resize(num_nodes + 1);
  for (uint32_t i = 0; i <= num_nodes; ++i) {
    p.node_begin_[i] = static_cast<VertexId>(node_bounds[i]);
  }

  p.node_first_vblock_.resize(num_nodes + 1);
  uint32_t vb_count = 0;
  for (uint32_t i = 0; i < num_nodes; ++i) {
    p.node_first_vblock_[i] = vb_count;
    vb_count += vblocks_per_node[i];
  }
  p.node_first_vblock_[num_nodes] = vb_count;

  p.vblock_begin_.resize(vb_count + 1);
  p.vblock_node_.resize(vb_count);
  uint32_t vb = 0;
  for (uint32_t i = 0; i < num_nodes; ++i) {
    const std::vector<uint64_t> vb_bounds = SplitByWeight(
        at, node_bounds[i], node_bounds[i + 1], vblocks_per_node[i]);
    for (uint32_t j = 0; j < vblocks_per_node[i]; ++j, ++vb) {
      p.vblock_begin_[vb] = static_cast<VertexId>(vb_bounds[j]);
      p.vblock_node_[vb] = i;
    }
  }
  p.vblock_begin_[vb_count] = static_cast<VertexId>(num_vertices);
  return p;
}

Result<RangePartition> RangePartition::Create(
    uint64_t num_vertices, uint32_t num_nodes,
    std::vector<uint32_t> vblocks_per_node) {
  return Split(num_vertices, num_nodes, vblocks_per_node, nullptr);
}

Result<RangePartition> RangePartition::CreateDegreeBalanced(
    uint64_t num_vertices, uint32_t num_nodes,
    std::vector<uint32_t> vblocks_per_node,
    const std::vector<uint32_t>& out_degrees) {
  if (out_degrees.size() != num_vertices) {
    return Status::InvalidArgument("out_degrees size != num_vertices");
  }
  // Weight = out_degree + 1: the +1 spreads zero-degree tails over nodes
  // instead of lumping them into the last range, and makes regular graphs
  // degenerate to Create()'s vertex-count split.
  std::vector<uint64_t> prefix(num_vertices + 1, 0);
  for (uint64_t v = 0; v < num_vertices; ++v) {
    prefix[v + 1] = prefix[v] + out_degrees[v] + 1;
  }
  return Split(num_vertices, num_nodes, vblocks_per_node, &prefix);
}

Result<RangePartition> RangePartition::CreateUniform(uint64_t num_vertices,
                                                     uint32_t num_nodes,
                                                     uint32_t vblocks_per_node) {
  return Create(num_vertices, num_nodes,
                std::vector<uint32_t>(num_nodes, vblocks_per_node));
}

NodeId RangePartition::NodeOf(VertexId v) const {
  auto it = std::upper_bound(node_begin_.begin(), node_begin_.end(), v);
  return static_cast<NodeId>(it - node_begin_.begin() - 1);
}

uint32_t RangePartition::VblockOf(VertexId v) const {
  auto it = std::upper_bound(vblock_begin_.begin(), vblock_begin_.end(), v);
  return static_cast<uint32_t>(it - vblock_begin_.begin() - 1);
}

}  // namespace hybridgraph
