#include "core/metrics_csv.h"

#include <fstream>

#include "util/string_util.h"

namespace hybridgraph {

std::string SuperstepMetricsCsv(const JobStats& stats) {
  std::string out =
      "superstep,mode,switched,active,responding,messages,messages_on_wire,"
      "messages_combined,messages_spilled,io_vt,io_adj,io_spill_write,"
      "io_spill_read,io_eblock,io_fragment_aux,io_vrr,io_other,io_total,"
      "net_bytes,net_frames,net_retries,net_timeouts,net_reconnects,"
      "cpu_s,io_s,net_s,blocking_s,superstep_s,"
      "memory_bytes,spill_buffer_bytes,spill_resident_peak,"
      "prefetch_scheduled,prefetch_hits,prefetch_misses,prefetch_hit_bytes,"
      "aggregate,q_t,phase_consume_s,phase_update_s,phase_drain_s,"
      "push_cells,pull_cells,pull_requests,edges_scanned,msg_imbalance,"
      "edge_imbalance,local_iters,barriers_saved,local_msg_bytes\n";
  for (const auto& s : stats.supersteps) {
    out += StringFormat(
        "%d,%s,%d,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.9g,%.9g,%.9g,%.9g,"
        "%.9g,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.9g,%.9g,%.9g,%.9g,"
        "%.9g,%llu,%llu,%llu,%llu,%.9g,%.9g,%llu,%llu,%llu\n",
        s.superstep, EngineModeName(s.mode), s.switched ? 1 : 0,
        (unsigned long long)s.active_vertices,
        (unsigned long long)s.responding_vertices,
        (unsigned long long)s.messages_produced,
        (unsigned long long)s.messages_on_wire,
        (unsigned long long)s.messages_combined,
        (unsigned long long)s.messages_spilled,
        (unsigned long long)s.io.vt_bytes,
        (unsigned long long)s.io.adj_edge_bytes,
        (unsigned long long)s.io.msg_spill_write,
        (unsigned long long)s.io.msg_spill_read,
        (unsigned long long)s.io.eblock_edge_bytes,
        (unsigned long long)s.io.fragment_aux_bytes,
        (unsigned long long)s.io.vrr_bytes,
        (unsigned long long)s.io.other_bytes,
        (unsigned long long)s.io.Total(), (unsigned long long)s.net_bytes,
        (unsigned long long)s.net_frames, (unsigned long long)s.net_retries,
        (unsigned long long)s.net_timeouts,
        (unsigned long long)s.net_reconnects, s.cpu_seconds, s.io_seconds,
        s.net_seconds, s.blocking_seconds, s.superstep_seconds,
        (unsigned long long)s.memory_highwater_bytes,
        (unsigned long long)s.spill_merge_buffer_bytes,
        (unsigned long long)s.spill_peak_resident,
        (unsigned long long)s.prefetch_scheduled,
        (unsigned long long)s.prefetch_hits,
        (unsigned long long)s.prefetch_misses,
        (unsigned long long)s.prefetch_hit_bytes, s.aggregate, s.q_t,
        s.phase_consume_wall_s, s.phase_update_wall_s, s.phase_drain_wall_s,
        (unsigned long long)s.push_cells, (unsigned long long)s.pull_cells,
        (unsigned long long)s.pull_requests,
        (unsigned long long)s.edges_scanned, s.msg_imbalance,
        s.edge_imbalance, (unsigned long long)s.local_iters,
        (unsigned long long)s.barriers_saved,
        (unsigned long long)s.local_msg_bytes);
  }
  return out;
}

Status WriteSuperstepCsv(const JobStats& stats, const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return Status::IoError("cannot open csv for write: " + path);
  const std::string csv = SuperstepMetricsCsv(stats);
  f.write(csv.data(), static_cast<std::streamsize>(csv.size()));
  return f ? Status::OK() : Status::IoError("csv write failed: " + path);
}

}  // namespace hybridgraph
