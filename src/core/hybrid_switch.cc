#include "core/hybrid_switch.h"

#include <algorithm>
#include <cmath>

#include "io/disk_model.h"

namespace hybridgraph {
namespace {

/// Component estimates for the mode that did NOT run this superstep,
/// derived from store metadata and responding flags (Sec 5.3).
struct PushCostEstimate {
  double vt_bytes = 0;
  double adj_bytes = 0;
  double mdisk_bytes = 0;
  double Total() const { return vt_bytes + adj_bytes + 2.0 * mdisk_bytes; }
};
struct BPullCostEstimate {
  double vt_bytes = 0;
  double e_bytes = 0;
  double f_bytes = 0;
  double vrr_bytes = 0;
  double Total() const { return vt_bytes + e_bytes + f_bytes + vrr_bytes; }
};

uint64_t BTotal(const JobConfig& config) {
  return config.msg_buffer_per_node == UINT64_MAX
             ? UINT64_MAX
             : config.msg_buffer_per_node * config.num_nodes;
}

PushCostEstimate EstimateCioPush(const JobConfig& config,
                                 const RangePartition& partition,
                                 const std::vector<NodeState>& nodes,
                                 const HybridFacts& facts, uint64_t msgs) {
  // Eq. (7): IO(V^t) + IO(E~^t) + 2 IO(M_disk), estimated from metadata and
  // the responding flags while running b-pull ("we can figure out the set of
  // required Eblocks ... based on the distribution of edges used in
  // pushRes()", Sec 5.3 — here the adjacency blocks play that role).
  PushCostEstimate est;
  for (const auto& node : nodes) {
    if (!node.adj) continue;
    const uint32_t first_vb = partition.FirstVblockOf(node.id);
    const uint32_t last_vb = partition.LastVblockOf(node.id);
    for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
      if (node.vblock_res_next[vb - first_vb]) {
        est.adj_bytes += static_cast<double>(node.adj->BlockBytes(vb));
        est.vt_bytes += static_cast<double>(node.vstore->BlockBytes(vb));
      }
    }
  }
  const uint64_t b_total = BTotal(config);
  const uint64_t mdisk =
      (b_total == UINT64_MAX || msgs <= b_total) ? 0 : msgs - b_total;
  est.mdisk_bytes = static_cast<double>(mdisk) * facts.msg_record_size;
  return est;
}

BPullCostEstimate EstimateCioBPull(const RangePartition& partition,
                                   const std::vector<NodeState>& nodes) {
  // Eq. (8) estimated from the VE-BLOCK index over Eblocks that responding
  // Vblocks would serve next superstep.
  BPullCostEstimate est;
  for (const auto& node : nodes) {
    if (!node.ve) continue;
    const uint32_t first_vb = partition.FirstVblockOf(node.id);
    const uint32_t last_vb = partition.LastVblockOf(node.id);
    for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
      if (!node.vblock_res_next[vb - first_vb]) continue;
      est.vt_bytes += static_cast<double>(node.vstore->BlockBytes(vb));
      // Pull-Respond scans whole Eblocks (full e/f bytes) but reads source
      // values only for responding fragments — scale V_rr by the vblock's
      // responding fraction.
      const VertexRange r = partition.VblockRange(vb);
      uint64_t responding = 0;
      for (VertexId v = r.begin; v < r.end; ++v) {
        responding += node.responding_next[node.LocalIdx(v)];
      }
      const double frac =
          r.size() ? static_cast<double>(responding) / r.size() : 0.0;
      for (uint32_t dst = 0; dst < partition.num_vblocks(); ++dst) {
        const auto& idx = node.ve->Index(vb, dst);
        est.e_bytes += static_cast<double>(idx.edge_bytes);
        est.f_bytes += static_cast<double>(idx.aux_bytes);
        est.vrr_bytes += static_cast<double>(idx.num_fragments) * frac *
                         node.vstore->record_size();
      }
    }
  }
  return est;
}

}  // namespace

Result<EngineMode> DecideInitialMode(const JobConfig& config,
                                     const std::vector<NodeState>& nodes,
                                     const HybridFacts& facts,
                                     uint64_t b_lower_bound) {
  // Every mode but hybrid runs its own path for the whole job: push, pushM,
  // b-pull and vpull have one direction, adaptive decides per Eblock cell
  // inside its path, and GraphHP is push with intra-block sub-iterations
  // (the `mode != kHybrid` tail of EvaluateSwitch never flips any of them).
  if (config.mode != EngineMode::kHybrid) return config.mode;
  // Initial mode (Algorithm 3 line 2, Theorem 2): b-pull iff B <= |E|/2 - f.
  if (config.force_initial_mode) {
    return config.initial_mode;
  }
  if (config.memory_resident) {
    // Sufficient memory: communication dominates; b-pull combines
    // (Sec 6.1: "hybrid thereby runs b-pull" in that scenario).
    return EngineMode::kBPull;
  }
  const uint64_t b_total = BTotal(config);
  if (config.qt_use_table3_throughputs) {
    // Theorem 2's literal sufficient condition: b-pull iff B <= |E|/2-f.
    return (b_total != UINT64_MAX && b_total <= b_lower_bound)
               ? EngineMode::kBPull
               : EngineMode::kPush;
  }
  // Same decision as Theorem 2 ("|E| and f are available after
  // building VE-BLOCK ... we can decide before starting"), but
  // evaluated with the runtime model's effective costs and the job's
  // ACTUAL initial message volume (sum of out-degrees of the
  // initially-active vertices). For Always-Active jobs this equals
  // |E| — the theorem's premise; for Traversal-Style jobs the tiny
  // starting frontier correctly favours push.
  uint64_t adj_bytes = 0, e_bytes = 0, f_bytes = 0, total_fragments = 0;
  uint64_t initial_messages = 0, active = 0, vertices = 0;
  for (const auto& node : nodes) {
    if (node.adj) adj_bytes += node.adj->TotalBytes();
    if (node.ve) {
      e_bytes += node.ve->TotalEdgeBytes();
      f_bytes += node.ve->TotalAuxBytes();
      total_fragments += node.ve->TotalFragments();
    }
    vertices += node.range.size();
    for (VertexId v = node.range.begin; v < node.range.end; ++v) {
      if (node.active[node.LocalIdx(v)]) {
        ++active;
        initial_messages += node.vstore->OutDegree(v);
      }
    }
  }
  const double mdisk_bytes =
      (b_total == UINT64_MAX || initial_messages <= b_total)
          ? 0.0
          : static_cast<double>(initial_messages - b_total) *
                facts.msg_record_size;
  const double mb = 1024.0 * 1024.0;
  const double frac =
      static_cast<double>(active) / static_cast<double>(vertices);
  const double fragments = static_cast<double>(total_fragments) * frac;
  const double vrr_bytes =
      fragments * static_cast<double>(facts.value_record_size);
  const double q0 =
      mdisk_bytes / (config.disk.rand_write_mbps * mb) +
      (mdisk_bytes / facts.msg_record_size) *
          config.cpu.per_spilled_message_s * config.cpu.scale -
      fragments * config.disk.per_random_op_s -
      vrr_bytes / (kRamMbps * mb) +
      (static_cast<double>(adj_bytes) * frac + mdisk_bytes -
       (e_bytes + f_bytes) * frac) /
          (kRamMbps * mb);
  return q0 >= 0 ? EngineMode::kBPull : EngineMode::kPush;
}

void EvaluateSwitch(SuperstepMetrics* m, const JobConfig& config,
                    const RangePartition& partition,
                    const std::vector<NodeState>& nodes,
                    const HybridFacts& facts, int superstep,
                    HybridState* state, EngineMode* mode) {
  const bool ran_bpull = m->mode == EngineMode::kBPull;
  const uint64_t msgs = m->messages_produced;
  const uint64_t b_total = BTotal(config);

  // Q_t predicts superstep t+Δt. For Traversal-Style workloads the message
  // volume moves fast (Sec 5.3 / Appendix G), so extrapolate M with the
  // recent growth of the responding-vertex count over the Δt horizon.
  // (Responding counts, unlike message counts, are aligned identically under
  // push and b-pull production, so the trend survives mode switches.)
  // Always-Active workloads have growth 1 and are unaffected.
  double growth = state->prev_responding > 0 && m->responding_vertices > 0
                      ? static_cast<double>(m->responding_vertices) /
                            static_cast<double>(state->prev_responding)
                      : 1.0;
  growth = std::clamp(growth, 0.25, 4.0);
  const double predicted_msgs =
      static_cast<double>(msgs) *
      std::pow(growth, static_cast<double>(config.switch_interval));
  state->prev_responding = m->responding_vertices;

  const double mdisk_bytes =
      (b_total == UINT64_MAX || predicted_msgs <= static_cast<double>(b_total))
          ? 0.0
          : (predicted_msgs - static_cast<double>(b_total)) *
                facts.msg_record_size;

  // Observed-or-estimated quantities for this superstep (the series the
  // paper's Figs 11-13 check prediction accuracy against), plus the
  // component split Eq. (11) needs.
  double mco, cio_push, cio_bpull;
  double io_et_adj, io_e, io_f, io_vrr;
  if (ran_bpull) {
    mco = static_cast<double>(m->messages_combined);
    if (msgs > 0) {
      state->last_rco = mco / static_cast<double>(msgs);
    }
    io_e = static_cast<double>(m->io.eblock_edge_bytes);
    io_f = static_cast<double>(m->io.fragment_aux_bytes);
    io_vrr = static_cast<double>(m->io.vrr_bytes);
    cio_bpull = static_cast<double>(m->io.vt_bytes) + io_e + io_f + io_vrr;
    const PushCostEstimate est =
        EstimateCioPush(config, partition, nodes, facts, msgs);
    io_et_adj = est.adj_bytes;
    cio_push = est.Total();
  } else {
    mco = static_cast<double>(msgs) * state->last_rco;
    io_et_adj = static_cast<double>(m->io.adj_edge_bytes);
    cio_push = static_cast<double>(m->io.vt_bytes) + io_et_adj +
               static_cast<double>(m->io.msg_spill_write + m->io.msg_spill_read);
    const BPullCostEstimate est = EstimateCioBPull(partition, nodes);
    io_e = est.e_bytes;
    io_f = est.f_bytes;
    io_vrr = est.vrr_bytes;
    cio_bpull = est.Total();
  }
  m->actual_mco = mco;
  m->actual_cio_push = cio_push;
  m->actual_cio_bpull = cio_bpull;
  const double trend = msgs > 0 ? predicted_msgs / msgs : 1.0;
  m->predicted_mco = mco * trend;
  m->predicted_cio_push = cio_push * trend;
  m->predicted_cio_bpull = cio_bpull;

  // Eq. (11). Byte_m: one destination id if concatenated, a whole message if
  // combined. Under sufficient memory no data is disk-resident, so only the
  // communication term remains and b-pull's combining gain dominates the
  // sign (Sec 6.1).
  const double byte_m =
      facts.combinable ? (4.0 + static_cast<double>(facts.msg_size)) : 4.0;
  const double mb = 1024.0 * 1024.0;
  double q = (mco * trend * byte_m) / (config.net.mbps * mb);
  if (!config.memory_resident) {
    if (config.qt_use_table3_throughputs) {
      // The paper's literal Eq. (11) with the fio calibration numbers.
      q += mdisk_bytes / (config.disk.qt_rand_write_mbps * mb) -
           io_vrr / (config.disk.qt_rand_read_mbps * mb) +
           (io_et_adj + mdisk_bytes - io_e - io_f) /
               (config.disk.qt_seq_read_mbps * mb);
    } else {
      // Same algebra, but with the costs the runtime model actually charges:
      // spill writes hit the device; spill read-back and graph re-reads are
      // page-cached (RAM); V_rr pays the per-operation overhead; spilled
      // messages additionally pay push's sort-merge CPU — the term that
      // keeps push slow even on SSDs (Sec 6.1).
      const double vrr_ops =
          io_vrr / static_cast<double>(facts.value_record_size);
      const double spilled_msgs = mdisk_bytes / facts.msg_record_size;
      q += mdisk_bytes / (config.disk.rand_write_mbps * mb) +
           spilled_msgs * config.cpu.per_spilled_message_s -
           vrr_ops * config.disk.per_random_op_s -
           io_vrr / (kRamMbps * mb) +
           (io_et_adj + mdisk_bytes - io_e - io_f) / (kRamMbps * mb);
    }
  }
  m->q_t = q;

  if (config.mode != EngineMode::kHybrid) return;
  // Superstep 0 only establishes responding flags under b-pull production —
  // no message exchange yet, so there is nothing to evaluate.
  if (superstep == 0 && m->messages_produced == 0) return;
  // Δt suppression: switching every superstep is not cost effective.
  if (superstep - state->last_switch_superstep < config.switch_interval) return;

  // Eq. (11)'s sign picks the regime; ties go to b-pull.
  const EngineMode desired = q >= 0 ? EngineMode::kBPull : EngineMode::kPush;
  if (desired != *mode) {
    state->last_switch_superstep = superstep;
    *mode = desired;
  }
}

}  // namespace hybridgraph
