#include "core/superstep_accounting.h"

#include <algorithm>
#include <utility>

namespace hybridgraph {

namespace {

/// Modeled fixed cost of one network package flush (connection overhead,
/// Appendix E), scaled down with the datasets like the sending threshold.
constexpr double kFlushOverheadSeconds = 20e-6;

}  // namespace

void BeginBlockAccounting(std::vector<NodeState>& nodes, Transport& transport) {
  for (auto& node : nodes) {
    node.aggregate_partial = 0;
    node.updated_vertices = 0;
    node.msgs_produced = 0;
    node.msgs_wire = 0;
    node.msgs_combined = 0;
    node.flushes = 0;
    node.cpu_seconds = 0;
    node.mem_highwater = 0;
    node.spill_buffer_peak = 0;
    node.spill_resident_peak = 0;
    node.edges_scanned = 0;
    node.pull_requests = 0;
    node.local_iters = 0;
    node.local_depth = 0;
    node.local_msg_bytes = 0;
    node.prefetch_scheduled = 0;
    node.prefetch_hits = 0;
    node.prefetch_misses = 0;
    node.prefetch_hit_bytes = 0;
    node.io = IoBreakdown{};
    node.disk_snapshot = *node.storage->meter();
    node.net_snapshot = *transport.meter(node.id);
  }
}

uint64_t ModeledMemoryBytes(const NodeState& node,
                            const RangePartition& partition,
                            uint64_t extra_buffer_bytes) {
  // Metadata kept in memory by b-pull/hybrid: X_j (counts/degrees ~ 24B) and
  // the bitmap row per local Vblock.
  uint64_t meta = 0;
  if (node.ve) {
    meta = static_cast<uint64_t>(partition.NumVblocksOf(node.id)) *
           (24 + partition.num_vblocks() / 8 + 1);
  }
  return meta + node.mem_highwater + extra_buffer_bytes;
}

SuperstepMetrics AccumulateBlockMetrics(std::vector<NodeState>& nodes,
                                        const BlockAccountingInputs& in) {
  const JobConfig& config = *in.config;
  SuperstepMetrics m;
  m.superstep = in.superstep;
  m.mode = in.produce_mode;
  m.switched = in.switched;

  double max_node_seconds = 0;
  double max_blocking = 0;
  uint64_t max_node_msgs = 0;
  uint64_t max_node_edges = 0;
  uint64_t sum_edges = 0;
  size_t node_idx = 0;
  for (auto& node : nodes) {
    max_node_msgs = std::max(max_node_msgs, node.msgs_produced);
    max_node_edges = std::max(max_node_edges, node.edges_scanned);
    sum_edges += node.edges_scanned;
    m.edges_scanned += node.edges_scanned;
    m.pull_requests += node.pull_requests;
    m.messages_produced += node.msgs_produced;
    m.messages_on_wire += node.msgs_wire;
    m.messages_combined += node.msgs_combined;
    m.messages_spilled += node.inbox_next.spilled;
    m.io.vt_bytes += node.io.vt_bytes;
    m.io.adj_edge_bytes += node.io.adj_edge_bytes;
    m.io.eblock_edge_bytes += node.io.eblock_edge_bytes;
    m.io.fragment_aux_bytes += node.io.fragment_aux_bytes;
    m.io.vrr_bytes += node.io.vrr_bytes;
    m.io.msg_spill_read += node.io.msg_spill_read;

    const DiskMeter disk_delta =
        node.storage->meter()->DeltaSince(node.disk_snapshot);
    // Spill writes are the only random writes in push/b-pull paths.
    m.io.msg_spill_write += disk_delta.bytes(IoClass::kRandWrite);
    const uint64_t classified =
        node.io.vt_bytes + node.io.adj_edge_bytes + node.io.eblock_edge_bytes +
        node.io.fragment_aux_bytes + node.io.vrr_bytes +
        node.io.msg_spill_read + disk_delta.bytes(IoClass::kRandWrite);
    const uint64_t total = disk_delta.TotalBytes();
    m.io.other_bytes += total > classified ? total - classified : 0;

    const NetMeter net_delta =
        in.transport->meter(node.id)->DeltaSince(node.net_snapshot);
    m.net_bytes += net_delta.bytes_sent;
    m.net_frames += net_delta.frames_sent;

    const double io_s =
        config.memory_resident ? 0.0 : disk_delta.ModeledSeconds(config.disk);
    const double send_s = config.net.SecondsFor(net_delta.bytes_sent);
    const double recv_s = config.net.SecondsFor(net_delta.bytes_received);
    const double net_s = std::max(send_s, recv_s);
    // Blocking: per-flush connection overhead + the unoverlapped tail (the
    // last package can never overlap with compute) + any transfer time not
    // hidden behind local work.
    const double work_s = node.cpu_seconds + io_s;
    const double tail_s = config.net.SecondsFor(std::min<uint64_t>(
        config.sending_threshold_bytes, net_delta.bytes_sent));
    const double blocking_s =
        static_cast<double>(node.flushes) * kFlushOverheadSeconds + tail_s +
        std::max(0.0, net_s - work_s);
    const double node_s = work_s + blocking_s;

    m.cpu_seconds += node.cpu_seconds;
    m.io_seconds += io_s;
    m.net_seconds += net_s;
    max_blocking = std::max(max_blocking, blocking_s);
    max_node_seconds = std::max(max_node_seconds, node_s);

    const uint64_t extra =
        in.extra_memory_bytes ? (*in.extra_memory_bytes)[node_idx] : 0;
    m.memory_highwater_bytes += ModeledMemoryBytes(node, *in.partition, extra);

    m.spill_merge_buffer_bytes =
        std::max(m.spill_merge_buffer_bytes, node.spill_buffer_peak);
    m.spill_peak_resident =
        std::max(m.spill_peak_resident, node.spill_resident_peak);

    m.local_iters += node.local_iters;
    m.local_msg_bytes += node.local_msg_bytes;
    // barriers_saved = the deepest sub-iteration chain anywhere in the
    // cluster: the synchronous engine would have paid one global barrier
    // per level of that chain.
    m.barriers_saved = std::max(m.barriers_saved, node.local_depth);

    // Drain the pipeline's since-last-drain counters (measured, not
    // modeled — never feeds the modeled seconds or byte columns above).
    if (node.pipeline) {
      const ReadPipeline::Stats ps = node.pipeline->DrainStats();
      node.prefetch_scheduled += ps.scheduled;
      node.prefetch_hits += ps.hits;
      node.prefetch_misses += ps.misses + ps.fallbacks;
      node.prefetch_hit_bytes += ps.hit_bytes;
    }
    m.prefetch_scheduled += node.prefetch_scheduled;
    m.prefetch_hits += node.prefetch_hits;
    m.prefetch_misses += node.prefetch_misses;
    m.prefetch_hit_bytes += node.prefetch_hit_bytes;

    uint64_t responding = 0;
    for (uint8_t r : node.responding_next) responding += r;
    m.responding_vertices += responding;
    m.active_vertices += node.updated_vertices;
    ++node_idx;
  }
  m.blocking_seconds = max_blocking;
  m.superstep_seconds = max_node_seconds;

  // Load imbalance: max-node share over the perfectly balanced share
  // (1.0 = even, num_nodes = everything on one node, 0 = nothing moved).
  // Modeled counters only, so both factors are thread-count invariant.
  const double num_nodes = static_cast<double>(nodes.size());
  m.msg_imbalance = m.messages_produced > 0
                        ? static_cast<double>(max_node_msgs) * num_nodes /
                              static_cast<double>(m.messages_produced)
                        : 0.0;
  m.edge_imbalance = sum_edges > 0
                         ? static_cast<double>(max_node_edges) * num_nodes /
                               static_cast<double>(sum_edges)
                         : 0.0;

  const TransportFaultCounters faults =
      in.transport->fault_counters().DeltaSince(in.fault_snapshot);
  m.net_retries = faults.retries;
  m.net_timeouts = faults.timeouts;
  m.net_reconnects = faults.reconnects;
  return m;
}

void PromoteBlockState(std::vector<NodeState>& nodes, uint64_t* responding_total,
                       uint64_t* inflight_messages) {
  *responding_total = 0;
  *inflight_messages = 0;
  for (auto& node : nodes) {
    node.responding.swap(node.responding_next);
    node.vblock_res.swap(node.vblock_res_next);
    std::swap(node.inbox_cur, node.inbox_next);
    for (uint8_t r : node.responding) *responding_total += r;
    *inflight_messages += node.inbox_cur.total;
  }
}

}  // namespace hybridgraph
