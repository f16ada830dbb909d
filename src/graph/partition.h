// Range partitioning of vertices onto computational nodes and Vblocks.
//
// The paper range-partitions vertex ids: first into T contiguous per-node
// ranges, then each node's range into V_i contiguous Vblocks (Sec 4.1; any
// smarter partitioner can be applied by re-ordering ids first).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "net/transport.h"
#include "util/status.h"

namespace hybridgraph {

/// \brief Immutable vertex -> (node, Vblock) mapping with O(1) lookups.
class RangePartition {
 public:
  /// Evenly splits `num_vertices` over `num_nodes`, then each node's range
  /// over `vblocks_per_node[i]` Vblocks (sizes differ by at most one vertex).
  static Result<RangePartition> Create(uint64_t num_vertices, uint32_t num_nodes,
                                       std::vector<uint32_t> vblocks_per_node);

  /// Convenience: the same Vblock count on every node.
  static Result<RangePartition> CreateUniform(uint64_t num_vertices,
                                              uint32_t num_nodes,
                                              uint32_t vblocks_per_node);

  /// Splits on out-degree weight instead of vertex count: node (and Vblock)
  /// boundaries are greedy cuts through the prefix sum of `out_degree + 1`,
  /// so edge-heavy regions get fewer vertices per range. Keeps the
  /// contiguous-range contract, and on a regular graph (all degrees equal)
  /// produces exactly the same boundaries as Create(). Node boundaries do
  /// not depend on `vblocks_per_node`, so a 1-Vblock coarse partition and
  /// the final partition agree on node ranges.
  static Result<RangePartition> CreateDegreeBalanced(
      uint64_t num_vertices, uint32_t num_nodes,
      std::vector<uint32_t> vblocks_per_node,
      const std::vector<uint32_t>& out_degrees);

  uint32_t num_nodes() const { return num_nodes_; }
  uint64_t num_vertices() const { return num_vertices_; }
  /// Total Vblock count V across all nodes.
  uint32_t num_vblocks() const { return static_cast<uint32_t>(vblock_node_.size()); }

  NodeId NodeOf(VertexId v) const;
  /// Global Vblock index of v.
  uint32_t VblockOf(VertexId v) const;

  VertexRange NodeRange(NodeId node) const {
    return {node_begin_[node], node_begin_[node + 1]};
  }
  VertexRange VblockRange(uint32_t vblock) const {
    return {vblock_begin_[vblock], vblock_begin_[vblock + 1]};
  }

  NodeId NodeOfVblock(uint32_t vblock) const { return vblock_node_[vblock]; }
  /// Global Vblock indices owned by `node`: [first, last).
  uint32_t FirstVblockOf(NodeId node) const { return node_first_vblock_[node]; }
  uint32_t LastVblockOf(NodeId node) const { return node_first_vblock_[node + 1]; }
  uint32_t NumVblocksOf(NodeId node) const {
    return LastVblockOf(node) - FirstVblockOf(node);
  }

  /// Default-constructs an empty partition (no nodes); assign a real one
  /// from Create() before use.
  RangePartition() = default;

 private:
  /// The body of Create and CreateDegreeBalanced: cuts the node ranges, then
  /// each node's Vblocks, by the weight prefix sum `prefix` (prefix[v] is the
  /// weight of vertices [0, v)); null means unit weights.
  static Result<RangePartition> Split(
      uint64_t num_vertices, uint32_t num_nodes,
      const std::vector<uint32_t>& vblocks_per_node,
      const std::vector<uint64_t>* prefix);

  uint64_t num_vertices_ = 0;
  uint32_t num_nodes_ = 0;
  std::vector<VertexId> node_begin_;        // size num_nodes+1
  std::vector<VertexId> vblock_begin_;      // size num_vblocks+1
  std::vector<NodeId> vblock_node_;         // size num_vblocks
  std::vector<uint32_t> node_first_vblock_; // size num_nodes+1
};

}  // namespace hybridgraph
