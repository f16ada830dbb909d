// Compiled message-flow machinery shared by the push-family and b-pull
// MessagePaths: applying incoming push batches to the double-buffered inbox
// (with the pushM online-computing and B_i overflow policies), draining the
// staged batches in sender order, collecting Phase A's pending set from the
// inbox or from pull responses, and flushing the sender staging buffers.
//
// All message payloads stay raw encoded bytes; the typed Combine logic is
// injected as CombineRawFn shims, so these functions compile once. PodCodec
// is a memcpy round trip, so raw payloads are bit-identical to typed ones.
#pragma once

#include <cstdint>

#include "core/node_state.h"
#include "graph/partition.h"
#include "net/transport.h"
#include "util/buffer.h"
#include "util/status.h"

namespace hybridgraph {

/// Receive-side policy for push batches, fixed at Load() time.
struct PushApplyPolicy {
  size_t msg_size = 0;
  uint64_t buffer_cap = 0;      ///< B_i (config.msg_buffer_per_node)
  bool unlimited = false;       ///< B_i == UINT64_MAX || memory_resident
  bool online_compute = false;  ///< pushM (MOCgraph): fold into moc slots
  bool combinable = false;
  SendStaging::CombineRawFn combiner = nullptr;  ///< for the moc fold
};

/// Applies one decoded kPushMessages batch to node.inbox_next (or the moc
/// accumulators under pushM), spilling overflow. Mirrors HandlePushBatch.
Status ApplyPushBatch(NodeState& node, Slice payload,
                      const PushApplyPolicy& policy);

/// Applies the batches stashed by the kPushMessages handler, in sender
/// order. Sequential execution delivered every batch from node 0 before any
/// batch from node 1 (each sender ran its whole Phase B before the next), so
/// this drain order reproduces the sequential inbox/moc/spill state exactly
/// at any thread count.
Status DrainStagedPushBatches(NodeState& node, uint32_t num_nodes,
                              const PushApplyPolicy& policy);

/// Consume-side policy for the push-family Phase A drain.
struct PushCollectPolicy {
  size_t msg_size = 0;
  size_t msg_record_size = 0;        ///< 4 + msg_size
  bool online_compute = false;       ///< pushM: drain the moc accumulators
  bool combinable = false;
  uint64_t spill_merge_buffer_bytes = 0;
  double per_spilled_message_s = 0;  ///< cpu cost, already scale-folded
};

/// Phase A under push consumption: merge the in-memory inbox with the
/// spilled runs into the pending set, grouped per vertex (CollectPush).
Status CollectPushMessages(NodeState& node, const PushCollectPolicy& policy);

/// Consume-side policy for b-pull Phase A.
struct BPullCollectPolicy {
  size_t msg_size = 0;
  bool prepull_double = false;  ///< pre_pull && combinable: BR doubles
  uint32_t num_nodes = 0;
  /// Request–respond dedup (config.request_respond_dedup): batch every
  /// requested local Vblock to one destination into a single kPullRequest
  /// (wire: fixed32 count + count × fixed32 Vblock ids), answered by one
  /// combined response — one round trip per node pair per superstep. The
  /// legacy per-Vblock request stays a bare 4-byte id on the wire.
  bool dedup_requests = false;
  /// Optional skip mask from the adaptive kPullAdvert exchange, indexed
  /// [destination node][vb - FirstVblockOf(requester)]: 0 drops the request
  /// for that (destination, local Vblock) pair (the destination decided push
  /// or skip for every cell targeting the Vblock, so the response would be
  /// empty). Null requests everything.
  const std::vector<std::vector<uint8_t>>* request_mask = nullptr;
};

/// Phase A under b-pull consumption: Algorithm 1 (Pull-Request) — one
/// request per (local Vblock, node) pair, or one batched request per node
/// under dedup_requests; responses land in the pending set. Either way the
/// per-destination-vertex message arrival order is (ascending serving node,
/// ascending source Vblock), so pending-set combines are identical.
/// Increments node.pull_requests once per request actually issued.
Status CollectBPullMessages(NodeState& node, const RangePartition& partition,
                            Transport& transport,
                            const BPullCollectPolicy& policy);

/// Decodes a kPullRequest payload into its target Vblock list: a bare
/// 4-byte payload is the legacy single-Vblock form; anything longer is the
/// deduped fixed32 count + ids form.
Status DecodePullRequestTargets(Slice payload, std::vector<uint32_t>* targets);

/// Ships the staged records for `dst` if forced or past the sending
/// threshold (FlushStaging). msg_record_size = 4 + msg_size.
Status FlushStagedMessages(NodeState& node, Transport& transport, NodeId dst,
                           bool force, uint64_t sending_threshold_bytes,
                           size_t msg_record_size);

}  // namespace hybridgraph
