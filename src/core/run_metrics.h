// Per-superstep and per-job metrics: the observables every paper figure is
// drawn from (modeled runtime, I/O byte breakdown, network traffic, memory
// high-water, blocking time, and the hybrid predictor trace).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/job_config.h"

namespace hybridgraph {

/// Byte-level I/O breakdown of one superstep (cluster totals), split along
/// the terms of Eq. (7)/(8).
struct IoBreakdown {
  uint64_t vt_bytes = 0;          ///< IO(V^t): vertex value block read+write
  uint64_t adj_edge_bytes = 0;    ///< IO(E~^t): adjacency blocks read (push)
  uint64_t msg_spill_write = 0;   ///< IO(M_disk) written (push, random)
  uint64_t msg_spill_read = 0;    ///< IO(M_disk) read back (push, sequential)
  uint64_t eblock_edge_bytes = 0; ///< IO(E^t): Eblock edge payload (b-pull)
  uint64_t fragment_aux_bytes = 0;///< IO(F^t): fragment auxiliary data
  uint64_t vrr_bytes = 0;         ///< IO(V_rr): random source-vertex reads
  uint64_t other_bytes = 0;       ///< anything else (v-pull cache traffic...)

  uint64_t Total() const {
    return vt_bytes + adj_edge_bytes + msg_spill_write + msg_spill_read +
           eblock_edge_bytes + fragment_aux_bytes + vrr_bytes + other_bytes;
  }
};

/// Metrics for one superstep.
struct SuperstepMetrics {
  int superstep = 0;
  EngineMode mode = EngineMode::kPush;  ///< production mode this superstep
  bool switched = false;                ///< a mode switch happened here

  uint64_t active_vertices = 0;
  uint64_t responding_vertices = 0;
  uint64_t messages_produced = 0;   ///< M
  uint64_t messages_on_wire = 0;    ///< after concatenation/combining
  uint64_t messages_combined = 0;   ///< M_co: messages removed/shared by concat+combine
  uint64_t messages_spilled = 0;    ///< |M_disk| (push)

  IoBreakdown io;
  uint64_t net_bytes = 0;           ///< frame bytes sent cluster-wide
  uint64_t net_frames = 0;

  /// Modeled time components. Superstep wall time under BSP is the max over
  /// nodes; we record both the max-based superstep time and the components.
  double cpu_seconds = 0;
  double io_seconds = 0;
  double net_seconds = 0;
  double blocking_seconds = 0;      ///< message-exchange blocking (Fig 17)
  double superstep_seconds = 0;     ///< max over nodes of (cpu+io+blocking)

  /// Host wall time per pipeline phase (reference only, like wall_seconds —
  /// these are measured, not modeled, so they vary run to run).
  double phase_consume_wall_s = 0;  ///< Phase A (consume + post-barrier drain)
  double phase_update_wall_s = 0;   ///< Phase B update/produce sweep
  double phase_drain_wall_s = 0;    ///< post-produce drain (staged batches)

  /// Prefetch-pipeline observability (cluster totals; measured, not modeled:
  /// background reads are unmetered and metering happens at the consumption
  /// point, so modeled I/O is bit-identical prefetch on/off).
  uint64_t prefetch_scheduled = 0;  ///< background reads staged
  uint64_t prefetch_hits = 0;       ///< consumption reads served staged
  uint64_t prefetch_misses = 0;     ///< staged-miss + error fallbacks
  uint64_t prefetch_hit_bytes = 0;  ///< bytes served from staged reads

  uint64_t memory_highwater_bytes = 0;

  /// Adaptive mode (kAdaptive) only, zero elsewhere: cluster-wide count of
  /// Eblock grid cells decided push / decided pull this superstep. Modeled
  /// (not measured): folded from per-node counters in node order, so they
  /// are bit-identical at any thread count like every other modeled column.
  uint64_t push_cells = 0;
  uint64_t pull_cells = 0;

  /// Pull-Request round trips issued cluster-wide this superstep (b-pull /
  /// adaptive consumption; zero under pure push). Modeled: the request set
  /// is derived from promoted flags and adverts, never from thread timing.
  uint64_t pull_requests = 0;

  /// Per-node load imbalance of this superstep, as max-node share over the
  /// perfectly balanced share (1.0 = even, num_nodes = all on one node,
  /// 0 = nothing produced/scanned). Modeled counters only.
  uint64_t edges_scanned = 0;   ///< cluster total of edges walked/decoded
  double msg_imbalance = 0;     ///< over msgs_produced (incl. serve side)
  double edge_imbalance = 0;    ///< over edges_scanned

  /// Streaming spill-merge observability (push/hybrid only; zero elsewhere).
  uint64_t spill_merge_buffer_bytes = 0;  ///< max over nodes: run buffers held
  uint64_t spill_peak_resident = 0;       ///< max over nodes: peak resident
                                          ///< spill entries during the merge

  /// GraphHP intra-block asynchrony (kGraphHp production only; zero
  /// elsewhere). Modeled counters, folded from per-node state in node order
  /// — bit-identical at any thread count.
  uint64_t local_iters = 0;      ///< sum over nodes of local sub-iterations
  uint64_t barriers_saved = 0;   ///< max over nodes of the deepest per-Vblock
                                 ///< sub-iteration chain: a lower bound on
                                 ///< global barriers a synchronous run would
                                 ///< have needed for the same propagation
  uint64_t local_msg_bytes = 0;  ///< intra-Vblock message bytes delivered in
                                 ///< memory instead of the wire/spill path

  /// Transport fault recovery this superstep (nonzero only on TcpTransport
  /// under injected or real faults; see Transport::fault_counters()).
  uint64_t net_retries = 0;
  uint64_t net_timeouts = 0;
  uint64_t net_reconnects = 0;

  /// Global aggregator value combined at this superstep's barrier (0 when
  /// the program has no aggregator).
  double aggregate = 0;

  /// Hybrid predictor trace (Sec 5.3). q_t is the metric computed this
  /// superstep; predicted_* are the values assumed for superstep t+Δt, and
  /// the actual counterpart lands in that later superstep's record.
  double q_t = 0;
  double predicted_mco = 0;
  double predicted_cio_push = 0;
  double predicted_cio_bpull = 0;
  /// "Actual" comparable values for this superstep (observed when running the
  /// mode, estimated otherwise — same convention as the paper's Figs 11-13).
  double actual_mco = 0;
  double actual_cio_push = 0;
  double actual_cio_bpull = 0;
};

/// Metrics for the graph loading phase (Fig 16).
struct LoadMetrics {
  double load_seconds = 0;          ///< modeled: parse + store build
  uint64_t bytes_written = 0;       ///< bytes written to build the layouts
  uint64_t adj_bytes = 0;
  uint64_t veblock_bytes = 0;
  uint64_t vblock_bytes = 0;
  uint64_t total_fragments = 0;     ///< f (Theorem 2)
  uint64_t b_lower_bound = 0;       ///< B_perp = |E|/2 - f
};

/// \brief Everything a finished job reports.
struct JobStats {
  std::vector<SuperstepMetrics> supersteps;
  LoadMetrics load;
  int supersteps_run = 0;
  bool converged = false;
  double modeled_seconds = 0;  ///< sum of superstep_seconds
  double wall_seconds = 0;     ///< actual host time (for reference only)

  uint64_t TotalIoBytes() const {
    uint64_t t = 0;
    for (const auto& s : supersteps) t += s.io.Total();
    return t;
  }
  uint64_t TotalNetBytes() const {
    uint64_t t = 0;
    for (const auto& s : supersteps) t += s.net_bytes;
    return t;
  }
  uint64_t TotalMessages() const {
    uint64_t t = 0;
    for (const auto& s : supersteps) t += s.messages_produced;
    return t;
  }
  uint64_t MaxMemoryHighwater() const {
    uint64_t t = 0;
    for (const auto& s : supersteps)
      t = t < s.memory_highwater_bytes ? s.memory_highwater_bytes : t;
    return t;
  }
  uint64_t TotalPullRequests() const {
    uint64_t t = 0;
    for (const auto& s : supersteps) t += s.pull_requests;
    return t;
  }
  double MaxMsgImbalance() const {
    double t = 0;
    for (const auto& s : supersteps)
      t = t < s.msg_imbalance ? s.msg_imbalance : t;
    return t;
  }
  double MaxEdgeImbalance() const {
    double t = 0;
    for (const auto& s : supersteps)
      t = t < s.edge_imbalance ? s.edge_imbalance : t;
    return t;
  }

  /// One-line summary for bench output.
  std::string Summary() const;
};

}  // namespace hybridgraph
