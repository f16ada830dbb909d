// Job configuration: engine mode, cluster shape, memory limits and the
// hardware profiles that parameterize the cost model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "io/disk_model.h"
#include "net/transport.h"
#include "util/status.h"

namespace hybridgraph {

/// Message-handling regime (the paper's compared systems).
enum class EngineMode : int {
  kPush = 0,      ///< Giraph-style push with receiver-side disk spill
  kPushM = 1,     ///< MOCgraph-style push with message online computing
  kVPull = 2,     ///< GraphLab PowerGraph-style GAS pull (vertex-cut)
  kBPull = 3,     ///< the paper's block-centric pull
  kHybrid = 4,    ///< per-superstep Eq. 11 switching between the regimes
  kAdaptive = 5,  ///< frontier-aware per-Eblock-cell push/pull choice
  kGraphHp = 6,   ///< GraphHP-style push: inner vertices iterate to local
                  ///< convergence within a superstep, only boundary messages
                  ///< cross the barrier (arXiv:1706.07221)
};

/// Registry/table size for EngineMode-indexed containers.
inline constexpr size_t kNumEngineModes = 7;

const char* EngineModeName(EngineMode mode);

/// Parses a command-line mode name (incl. aliases like "b-pull"); the single
/// mode table in job_config.cc is the source of truth, so a new EngineMode
/// shows up in parsing and in error messages automatically.
Status ParseEngineMode(const std::string& name, EngineMode* out);

/// Canonical parseable mode names, comma-joined ("push|pushm|..." with '|'
/// as the separator) for usage/error text. Aliases are excluded.
std::string EngineModeNameList();

/// OK when `mode` can run streaming epochs (the `streams` column of the
/// mode table), else FailedPrecondition naming the modes that can.
Status ValidateStreamingMode(EngineMode mode);

/// How the simulated nodes exchange frames.
enum class TransportKind : int {
  kInProc = 0,  ///< synchronous in-process dispatch (deterministic, default)
  kTcp = 1,     ///< real loopback TCP sockets (same frame protocol)
};

/// Modeled CPU cost constants (seconds per unit of work). These stand in for
/// the computation term C_cpu that the paper treats as identical across push
/// and pull; absolute values are calibration knobs, ratios do not affect any
/// push-vs-pull comparison.
struct CpuModel {
  double per_vertex_update_s = 0.4e-6;
  double per_message_s = 0.06e-6;
  double per_edge_s = 0.025e-6;
  /// Extra cost of sort-merging spilled messages (per spilled message);
  /// models Giraph's computation-intensive sort-merge (Sec 6.1: on the SSD
  /// cluster push does not improve because sorting dominates).
  double per_spilled_message_s = 3e-6;
  /// Cost of one sender-side combining attempt (hash probe + combine);
  /// Appendix E: the gain is "easily offset by the cost of combining if the
  /// threshold is small".
  double per_combine_s = 0.015e-6;
  /// Scales all CPU costs; the paper's amazon nodes have weaker virtual
  /// CPUs than the local cluster's physical ones (set ~2 for that cluster).
  double scale = 1.0;
};

/// \brief Everything needed to run one job.
struct JobConfig {
  EngineMode mode = EngineMode::kHybrid;
  uint32_t num_nodes = 5;

  /// Worker threads running the per-node superstep phases concurrently.
  /// 0 = one thread per hardware core; 1 = fully sequential execution.
  /// Results and modeled metrics are thread-count invariant (see DESIGN.md,
  /// "Threading model").
  uint32_t num_threads = 1;

  /// Receiver-side message buffer B_i (in messages) per node. UINT64_MAX
  /// means "sufficient memory" (nothing ever spills). For pushM this is the
  /// vertex cache capacity; for v-pull see vpull_vertex_cache.
  uint64_t msg_buffer_per_node = UINT64_MAX;

  /// v-pull vertex cache capacity (vertices per node, LRU).
  uint64_t vpull_vertex_cache = UINT64_MAX;

  /// Sending threshold: a per-destination staging buffer is flushed when its
  /// serialized size reaches this (paper Appendix E; default 4MB scaled down
  /// with the datasets).
  uint64_t sending_threshold_bytes = 16 * 1024;

  /// \brief The I/O knobs: spill merge, readahead.
  struct IoConfig {
    /// Per-run buffer of the streaming spill merge (bytes). The push-mode
    /// inbox drain holds at most B_i messages plus
    /// num_runs × spill_merge_buffer_bytes of run data in memory — never the
    /// whole spilled volume. Rounded down to a whole number of spill records
    /// (min one record per run). Must be nonzero.
    uint64_t spill_merge_buffer_bytes = 64 * 1024;

    /// Max staged readahead entries per node's ReadPipeline; 0 disables the
    /// overlapped I/O pipeline entirely (no I/O pool, no background reads).
    /// Modeled I/O is bit-identical either way — prefetch only moves
    /// wall-clock time.
    uint32_t prefetch_depth = 0;

    /// Max bytes held by not-yet-consumed readahead per node.
    uint64_t prefetch_budget_bytes = 4 * 1024 * 1024;
  };
  IoConfig io;

  /// Vblocks per node; 0 = derive from Eq. (5)/(6) using msg_buffer_per_node.
  uint32_t vblocks_per_node = 0;

  /// OS page-cache model per node (bytes; 0 disables). Default matches the
  /// paper's 6GB nodes at the dataset scale factor (~1/200).
  uint64_t page_cache_bytes_per_node = 32ull * 1024 * 1024;

  /// Pre-pull the next Vblock's messages while updating the current one
  /// (combinable algorithms only; doubles BR, Sec 4.3).
  bool pre_pull = true;

  /// Combiner inside b-pull's Pull-Respond. On by default; Sec 6.5 disables
  /// it to compare raw (concatenation-only) traffic against push.
  bool bpull_combining = true;

  /// Sender-side combining for push/pushM (pushM+com in Appendix E). The
  /// plain paper systems leave this off.
  bool push_sender_combining = false;

  /// Skew armor (Yan et al., arXiv:1503.00626): vertices whose in-degree is
  /// at or above this threshold get per-node mirrors — push-side sends to
  /// them fold into a local per-hot-vertex accumulator and ship once per
  /// (node, hot vertex) pair at the barrier flush. 0 disables mirroring.
  /// Requires a combinable program (Validate enforces it); only paths with
  /// the mirrors_hot_vertices capability (push family, adaptive push cells)
  /// fold.
  uint32_t mirror_degree_threshold = 0;

  /// Split node/Vblock ranges by the prefix sum of out-degrees
  /// (RangePartition::CreateDegreeBalanced) instead of vertex counts, so
  /// edge-heavy regions get fewer vertices per range. Off by default: the
  /// modeled-I/O goldens pin the vertex-count split.
  bool degree_balanced_partition = false;

  /// Request–respond dedup (Yan et al.): batch all of a node's per-Vblock
  /// Pull-Requests to one destination into a single request answered by one
  /// combined response (one round trip per node pair per superstep,
  /// regardless of how many local Vblocks request). Off by default to keep
  /// the b-pull wire goldens byte-identical; per-destination-vertex message
  /// arrival order is unchanged either way, so results and pending-set
  /// combines are identical.
  bool request_respond_dedup = false;

  /// GraphHP mode (kGraphHp): cap on intra-superstep local sub-iterations of
  /// the inner vertices of each Vblock. Sub-iterations stop earlier when the
  /// block reaches local quiescence. Must be >= 1. Only monotone programs
  /// (P::kLocallyIterable) actually iterate; others run exactly one global
  /// sweep like pure push, so results match push bit-for-bit.
  uint32_t ghp_max_local_iters = 10;

  /// Treat all data as memory-resident (the "sufficient memory" scenario of
  /// Fig 7): data still flows through the stores but modeled I/O time and
  /// spilling are disabled.
  bool memory_resident = false;

  int max_supersteps = 30;

  /// Hybrid: switching interval Δt (Sec 5.3 sets 2).
  int switch_interval = 2;
  /// Hybrid: evaluate Eq. (11) with the paper's raw Table-3 fio throughputs
  /// instead of the runtime model's effective costs (page-cached graph
  /// re-reads, per-op overheads). The default keeps the metric consistent
  /// with what the runtime model actually charges; the Table-3 variant is
  /// the paper-literal reference form of Eq. 11 and Theorem 2, pinned by
  /// Hybrid.Theorem2PicksPushWhenFragmentsDominate.
  bool qt_use_table3_throughputs = false;
  /// Hybrid: force the initial mode instead of the Theorem-2 rule.
  bool force_initial_mode = false;
  EngineMode initial_mode = EngineMode::kBPull;

  DiskProfile disk = DiskProfile::Hdd();
  NetProfile net = NetProfile::LocalGigabit();
  CpuModel cpu;

  TransportKind transport = TransportKind::kInProc;

  /// TCP transport reliability knobs (TransportKind::kTcp only; backoff
  /// and frame bounds keep TcpTransport::Options' defaults). The retry
  /// schedule is seeded from `seed`, so fault-injected runs replay
  /// bit-identically.
  uint32_t tcp_call_timeout_ms = 5000;  ///< per-attempt deadline (0 = none)
  uint32_t tcp_max_retries = 3;         ///< attempts beyond the first

  /// Fail-point schedule armed at Load() (see util/failpoint.h for the
  /// grammar; empty = none). Also settable via the HG_FAILPOINTS env var in
  /// hg_run.
  std::string failpoints;

  /// Use FileStorage under storage_dir instead of MemStorage.
  bool use_file_storage = false;
  std::string storage_dir = "/tmp/hybridgraph";

  /// Write a chrome://tracing (Trace Event Format) JSON of the per-phase,
  /// per-node superstep spans to this path after Run(). Empty disables
  /// collection entirely (zero overhead on the hot path).
  std::string trace_path;

  uint64_t seed = 42;

  /// Job properties that only the engine knows at Load() time but that
  /// affect config validity. Defaults are permissive so Validate() can also
  /// be called before a graph or program is in hand.
  struct JobFacts {
    uint64_t num_vertices = UINT64_MAX;
    bool combinable_messages = true;
  };

  /// Checks the config for internal consistency. The single entry point for
  /// every precondition the engine used to assert piecemeal in Load():
  /// pushM-needs-combinable, enough vertices for the
  /// cluster shape, and nonsensical knobs (zero nodes, a zero sending
  /// threshold, a zero message buffer, absurd thread counts). Returns
  /// InvalidArgument with a descriptive message on the first violation.
  Status Validate(const JobFacts& facts) const;
  Status Validate() const { return Validate(JobFacts()); }
};

}  // namespace hybridgraph
