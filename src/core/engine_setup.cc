#include "core/engine_setup.h"

#include <algorithm>
#include <cmath>

#include "io/message_spill.h"
#include "net/tcp_transport.h"
#include "util/string_util.h"

namespace hybridgraph {

std::unique_ptr<Transport> MakeTransport(const JobConfig& config) {
  if (config.transport == TransportKind::kTcp) {
    TcpTransport::Options topt;
    topt.call_timeout_ms = config.tcp_call_timeout_ms;
    topt.max_retries = config.tcp_max_retries;
    topt.seed = config.seed;
    return std::make_unique<TcpTransport>(config.num_nodes, topt);
  }
  return std::make_unique<InProcTransport>(config.num_nodes);
}

Result<std::unique_ptr<StorageService>> MakeNodeStorage(
    const JobConfig& config, const std::string& subdir) {
  std::unique_ptr<StorageService> storage;
  if (config.use_file_storage) {
    HG_ASSIGN_OR_RETURN(storage,
                        FileStorage::Open(config.storage_dir + "/" + subdir));
  } else {
    storage = std::make_unique<MemStorage>();
  }
  storage->EnablePageCache(config.page_cache_bytes_per_node);
  return storage;
}

void FoldCpuScale(JobConfig* config) {
  config->cpu.per_vertex_update_s *= config->cpu.scale;
  config->cpu.per_message_s *= config->cpu.scale;
  config->cpu.per_edge_s *= config->cpu.scale;
  config->cpu.per_spilled_message_s *= config->cpu.scale;
  config->cpu.per_combine_s *= config->cpu.scale;
  config->cpu.scale = 1.0;
}

double ModeledLoadSeconds(const JobConfig& config, uint64_t bytes_written) {
  return static_cast<double>(bytes_written) /
         (config.disk.seq_write_mbps * 1024.0 * 1024.0) / config.num_nodes;
}

uint32_t DeriveVblocks(const JobConfig& config, bool combinable, NodeId node,
                       uint64_t node_in_degree, uint64_t node_vertices) {
  (void)node;
  if (config.vblocks_per_node > 0) return config.vblocks_per_node;
  if (config.msg_buffer_per_node == UINT64_MAX || node_vertices == 0) {
    return 1;  // sufficient memory: as few Vblocks as possible (Sec 4.3)
  }
  const double bi = static_cast<double>(config.msg_buffer_per_node);
  double v;
  if (combinable) {
    // Eq. (5): V_i = (2 n_i + n_i T) / B_i.
    v = (2.0 * node_vertices +
         static_cast<double>(node_vertices) * config.num_nodes) /
        bi;
  } else {
    // Eq. (6): V_i = sum of in-degrees / B_i.
    v = static_cast<double>(node_in_degree) / bi;
  }
  uint32_t vi = static_cast<uint32_t>(std::ceil(v));
  vi = std::max<uint32_t>(1, vi);
  vi = static_cast<uint32_t>(
      std::min<uint64_t>(vi, std::max<uint64_t>(1, node_vertices)));
  return vi;
}

Status BuildBlockTopology(const EdgeListGraph& graph, const JobConfig& config,
                          size_t value_size, size_t msg_size,
                          bool need_adj, bool need_ve,
                          const BlockTopologyHooks& hooks,
                          RangePartition* partition,
                          std::unique_ptr<Transport>* transport,
                          std::vector<NodeState>* nodes, LoadMetrics* load) {
  const uint32_t T = config.num_nodes;

  // Node ranges are fixed by an even vertex split — or, with
  // degree_balanced_partition, by an even split of out-degree+1 weight
  // (skew armor: a hub-heavy prefix no longer lands on one node). Vblock
  // counts then follow from Eq. (5)/(6), which need per-node degree totals;
  // the node boundaries are independent of the Vblock counts, so the coarse
  // and final partitions agree on NodeOf().
  const auto in_degrees = graph.InDegrees();
  const auto out_degrees = graph.OutDegrees();
  RangePartition coarse;
  if (config.degree_balanced_partition) {
    HG_ASSIGN_OR_RETURN(coarse, RangePartition::CreateDegreeBalanced(
                                    graph.num_vertices, T,
                                    std::vector<uint32_t>(T, 1), out_degrees));
  } else {
    HG_ASSIGN_OR_RETURN(
        coarse, RangePartition::CreateUniform(graph.num_vertices, T, 1));
  }

  std::vector<uint64_t> node_in_degree(T, 0);
  for (VertexId v = 0; v < graph.num_vertices; ++v) {
    node_in_degree[coarse.NodeOf(v)] += in_degrees[v];
  }
  std::vector<uint32_t> vblocks(T);
  for (uint32_t i = 0; i < T; ++i) {
    vblocks[i] = DeriveVblocks(config, hooks.combiner != nullptr, i,
                               node_in_degree[i], coarse.NodeRange(i).size());
  }
  if (config.degree_balanced_partition) {
    HG_ASSIGN_OR_RETURN(*partition,
                        RangePartition::CreateDegreeBalanced(
                            graph.num_vertices, T, vblocks, out_degrees));
  } else {
    HG_ASSIGN_OR_RETURN(*partition,
                        RangePartition::Create(graph.num_vertices, T, vblocks));
  }

  // Bucket edges by source node.
  std::vector<std::vector<RawEdge>> local_edges(T);
  for (const auto& e : graph.edges) {
    local_edges[partition->NodeOf(e.src)].push_back(e);
  }

  *transport = MakeTransport(config);
  nodes->resize(T);
  HG_RETURN_IF_ERROR((*transport)->Start());

  uint64_t total_fragments = 0;
  for (uint32_t i = 0; i < T; ++i) {
    NodeState& node = (*nodes)[i];
    node.id = i;
    node.range = partition->NodeRange(i);
    HG_ASSIGN_OR_RETURN(
        node.storage, MakeNodeStorage(config, "node" + std::to_string(i)));

    HG_ASSIGN_OR_RETURN(
        node.vstore,
        VertexValueStore::Build(node.storage.get(), *partition, i, value_size,
                                out_degrees, hooks.init_value));
    if (need_adj) {
      HG_ASSIGN_OR_RETURN(node.adj,
                          AdjacencyStore::Build(node.storage.get(), *partition,
                                                i, local_edges[i]));
    }
    if (need_ve) {
      HG_ASSIGN_OR_RETURN(
          node.ve, VeBlockOverlay::Build(node.storage.get(), *partition, i,
                                         local_edges[i], in_degrees));
      total_fragments += node.ve->TotalFragments();
    }

    const uint32_t n = node.range.size();
    node.active.assign(n, 0);
    node.responding.assign(n, 0);
    node.responding_next.assign(n, 0);
    node.vblock_res.assign(partition->NumVblocksOf(i), 0);
    node.vblock_res_next.assign(partition->NumVblocksOf(i), 0);
    node.pending.Init(n, msg_size, hooks.combiner);
    node.staging.Init(T, msg_size, hooks.combiner);
    node.push_staged.assign(T, {});
    node.pull_serve.assign(T, {});
    node.pull_advert_staged.assign(T, {});
    node.pull_advert_valid.assign(T, 0);
    SeedInitActive(hooks.init_active, &node);
    auto spill_a = std::make_unique<MessageSpill>(
        node.storage.get(), StringFormat("node%u/spill/a", i), msg_size);
    auto spill_b = std::make_unique<MessageSpill>(
        node.storage.get(), StringFormat("node%u/spill/b", i), msg_size);
    node.inbox_cur = {RecordSlab(msg_size), std::move(spill_a)};
    node.inbox_next = {RecordSlab(msg_size), std::move(spill_b)};
  }

  // Load metrics + Theorem 2 bound.
  uint64_t bytes_written = 0, adj_bytes = 0, ve_bytes = 0, v_bytes = 0;
  for (auto& node : *nodes) {
    bytes_written += node.storage->meter()->WriteBytes();
    if (node.adj) adj_bytes += node.adj->TotalBytes();
    if (node.ve) ve_bytes += node.ve->TotalBytes();
    v_bytes += node.vstore->TotalBytes();
  }
  load->bytes_written = bytes_written;
  load->adj_bytes = adj_bytes;
  load->veblock_bytes = ve_bytes;
  load->vblock_bytes = v_bytes;
  load->total_fragments = total_fragments;
  const uint64_t half_e = graph.num_edges() / 2;
  load->b_lower_bound = half_e > total_fragments ? half_e - total_fragments : 0;
  // Modeled load time: sequential write of everything built.
  load->load_seconds = ModeledLoadSeconds(config, bytes_written);
  return Status::OK();
}

void SeedInitActive(const std::function<bool(VertexId)>& init_active,
                    NodeState* node) {
  for (VertexId v = node->range.begin; v < node->range.end; ++v) {
    node->active[node->LocalIdx(v)] = init_active(v) ? 1 : 0;
  }
}

}  // namespace hybridgraph
