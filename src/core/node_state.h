// Per-node runtime state for the block-centric engine (push / pushM / b-pull
// / hybrid), shared by every MessagePath that runs over the SuperstepDriver.
//
// Everything here is deliberately non-template: message and value payloads
// are kept as raw encoded bytes (PodCodec is a memcpy round trip, so raw
// storage is bit-identical to the typed vectors the monolithic engine used),
// which lets the containers, the counters and the accounting over them
// compile once in src/core/*.cc instead of per Program instantiation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/inbox.h"
#include "core/run_metrics.h"
#include "core/send_staging.h"
#include "graph/adjacency_store.h"
#include "graph/partition.h"
#include "graph/ve_block_overlay.h"
#include "graph/vertex_store.h"
#include "io/prefetch.h"
#include "io/storage.h"
#include "net/transport.h"
#include "util/status.h"

namespace hybridgraph {

/// One simulated cluster node: its storage layouts, runtime flags, message
/// containers and per-superstep counters. MessagePath strategies own the
/// typed logic (GenMessage/Update/Combine); NodeState owns the data.
struct NodeState {
  NodeId id = 0;
  std::unique_ptr<StorageService> storage;
  std::unique_ptr<VertexValueStore> vstore;
  std::unique_ptr<AdjacencyStore> adj;
  // Mutable VE-BLOCK view: immutable base blocks + streaming delta runs.
  // Frozen-graph runs never mutate it, so every read delegates to the base
  // store byte-for-byte.
  std::unique_ptr<VeBlockOverlay> ve;
  // Overlapped-I/O readahead over `storage` (null when prefetch is off).
  // Declared after `storage` so it is destroyed first: its destructor
  // cancels and waits out background reads while storage is still alive.
  std::unique_ptr<ReadPipeline> pipeline;

  VertexRange range;
  // Runtime flags, indexed by (v - range.begin).
  std::vector<uint8_t> active;
  std::vector<uint8_t> responding;
  std::vector<uint8_t> responding_next;
  // X_j.res per local Vblock (indexed by global vb - first_vb).
  std::vector<uint8_t> vblock_res;
  std::vector<uint8_t> vblock_res_next;

  MessageInbox inbox_cur;
  MessageInbox inbox_next;

  // pushM online accumulators for cached ("memory-resident") vertices.
  // moc_acc holds one raw message payload per local vertex (combinable
  // programs only); moc_slots is the slot count for the modeled-memory
  // charge (the raw vector's size() is slots * msg_size).
  std::vector<uint8_t> moc_cached;
  std::vector<uint8_t> moc_acc;
  std::vector<uint8_t> moc_has;
  uint64_t moc_slots = 0;

  // Per-destination-node send staging (push production) with the sender-side
  // combining index (pushM+com, Appendix E).
  SendStaging staging;

  // Vertex-mirroring accumulators (mirror_degree_threshold > 0, combinable
  // programs only): one raw message slot per cluster-wide hot vertex, indexed
  // by the MirrorTable slot. Push-side sends to a hot vertex fold here
  // instead of entering `staging`; FinishProduce drains the occupied slots
  // (ascending vertex id) into staging right before the barrier force-flush,
  // so each (sender node, hot vertex) pair ships at most one message.
  std::vector<uint8_t> mirror_acc;
  std::vector<uint8_t> mirror_has;

  // Messages collected for consumption this superstep.
  PendingSet pending;

  // Incoming kPushMessages payloads staged by the transport handler
  // (indexed by sender), applied to the inbox at the post-Phase-B drain in
  // sender order. Staging is what makes parallel Phase B deterministic:
  // the drain order equals the arrival order of the old sequential
  // execution (all of node 0's batches, then node 1's, ...), so the
  // memory/spill split and every combine order are thread-count invariant.
  std::vector<std::vector<std::vector<uint8_t>>> push_staged;

  // Incoming kPullAdvert payloads staged by the transport handler (indexed
  // by sender): the sender's list of OUR Vblocks it decided pull for at its
  // production sweep. The adaptive consume at t+1 skips the pull-request
  // round trip to senders whose advert omits a Vblock. `valid` distinguishes
  // "advert received" from "no advert" (e.g. right after a checkpoint
  // restore, where the conservative fallback is to request everything).
  std::vector<std::vector<uint8_t>> pull_advert_staged;
  std::vector<uint8_t> pull_advert_valid;

  // Pull-Respond accounting staged per requester. The handler runs in the
  // requester's thread while this node may be busy with its own Phase A,
  // so it must not touch the shared per-superstep counters directly; the
  // staged values are merged in requester order after the Phase A barrier,
  // which reproduces the sequential accumulation order exactly (floating-
  // point sums included).
  struct PullServe {
    IoBreakdown io;
    double cpu_seconds = 0;
    uint64_t msgs_produced = 0;
    uint64_t msgs_combined = 0;
    uint64_t msgs_wire = 0;
    uint64_t flushes = 0;
    uint64_t bs_highwater = 0;
    uint64_t edges = 0;  ///< Eblock edges scanned serving this requester
  };
  std::vector<PullServe> pull_serve;

  // Per-superstep counters.
  double aggregate_partial = 0;
  uint64_t updated_vertices = 0;
  uint64_t msgs_produced = 0;
  uint64_t msgs_wire = 0;
  uint64_t msgs_combined = 0;
  uint64_t flushes = 0;
  double cpu_seconds = 0;
  uint64_t mem_highwater = 0;
  // Load-imbalance observables: edges this node scanned (production
  // adjacency walks + pull serves) and pull-request round trips it issued.
  uint64_t edges_scanned = 0;
  uint64_t pull_requests = 0;
  // Streaming spill-merge observability (push-consume drain).
  uint64_t spill_buffer_peak = 0;    ///< run-buffer bytes held by the merge
  uint64_t spill_resident_peak = 0;  ///< peak resident spill entries
  uint64_t spill_combined = 0;       ///< combiner reductions (spill + merge)
  // GraphHP-style local sub-iteration counters (kGraphHp production only).
  // local_iters counts sub-iterations run across this node's Vblocks;
  // local_depth is the deepest chain of any one Vblock (the barriers the
  // synchronous engine would have needed); local_msg_bytes counts the
  // intra-Vblock message bytes delivered in memory instead of the wire.
  uint64_t local_iters = 0;
  uint64_t local_depth = 0;
  uint64_t local_msg_bytes = 0;
  // Prefetch-pipeline observability (drained from ReadPipeline at
  // end-of-superstep accounting; measured, not modeled).
  uint64_t prefetch_scheduled = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_misses = 0;
  uint64_t prefetch_hit_bytes = 0;
  // I/O classification counters (bytes).
  IoBreakdown io;

  DiskMeter disk_snapshot;
  NetMeter net_snapshot;

  uint32_t LocalIdx(VertexId v) const { return v - range.begin; }
};

/// Rewinds `node`'s BSP state for a new streaming epoch: no responding
/// flags, no undelivered messages (memory, spill, pending, staged pushes),
/// no accumulator or advert leftovers. Stores and `active` flags are the
/// caller's. An aggregator halt can leave produced-but-unconsumed messages
/// in the promoted inbox; a new epoch starts clean.
Status ResetEpochState(NodeState& node);

/// Folds the per-requester Pull-Respond counters into the node's counters
/// in requester order — the order the sequential engine accumulated them —
/// so float sums (cpu_seconds) are bit-identical at any thread count.
void MergePullServeCounters(NodeState& node, uint32_t num_nodes);

}  // namespace hybridgraph
