#include "core/message_flow.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "io/message_spill.h"
#include "net/message_codec.h"
#include "util/string_util.h"

namespace hybridgraph {

PushPolicy PushPolicy::For(const JobConfig& config, size_t msg_size,
                           SendStaging::CombineRawFn combiner) {
  return {.msg_size = msg_size,
          .buffer_cap =
              config.memory_resident ? UINT64_MAX : config.msg_buffer_per_node,
          .online_compute = config.mode == EngineMode::kPushM,
          .combiner = combiner,
          .spill_merge_buffer_bytes = config.io.spill_merge_buffer_bytes,
          .per_spilled_message_s = config.cpu.per_spilled_message_s};
}

Status AdmitPushRecords(NodeState& node, MessageInbox& inbox, Slice records,
                        const PushPolicy& policy) {
  const size_t record_size = 4 + policy.msg_size;
  HG_DCHECK(records.size() % record_size == 0);
  // Every destination is checked before any record is admitted, so a batch
  // naming a foreign vertex leaves the inbox, the moc slots and the spill
  // as they were.
  for (size_t at = 0; at < records.size(); at += record_size) {
    const VertexId dst = DecodeFixed<uint32_t>(records.data() + at);
    if (!node.range.Contains(dst)) {
      return Status::InvalidArgument(StringFormat(
          "push message for vertex %u outside node %u's range", dst, node.id));
    }
  }
  const size_t n = records.size() / record_size;
  inbox.total += n;
  if (!policy.online_compute) {
    // The first B_i − |mem| records fill the memory part; the rest of the
    // batch is one spill run, read straight from `records`.
    const uint64_t room = policy.buffer_cap - inbox.mem.count();
    const size_t to_mem = static_cast<size_t>(std::min<uint64_t>(n, room));
    inbox.mem.AppendRecords(records.data(), to_mem);
    if (to_mem == n) return Status::OK();
    inbox.spilled += n - to_mem;
    return inbox.spill->SpillRun(records.SubSlice(
        to_mem * record_size, (n - to_mem) * record_size));
  }
  // MOCgraph online computing: messages for memory-resident vertices are
  // folded into the accumulator immediately and never stored; the others
  // are gathered into one spill run.
  RecordSlab uncached(policy.msg_size);
  for (size_t at = 0; at < records.size(); at += record_size) {
    const uint8_t* record = records.data() + at;
    const uint32_t li = node.LocalIdx(DecodeFixed<uint32_t>(record));
    if (!node.moc_cached[li]) {
      uncached.AppendRecords(record, 1);
      continue;
    }
    if (policy.combiner != nullptr) {
      uint8_t* acc =
          node.moc_acc.data() + static_cast<size_t>(li) * policy.msg_size;
      if (node.moc_has[li]) {
        policy.combiner(acc, record + 4);
      } else {
        std::memcpy(acc, record + 4, policy.msg_size);
      }
    }
    node.moc_has[li] = 1;
  }
  if (uncached.empty()) return Status::OK();
  inbox.spilled += uncached.count();
  return inbox.spill->SpillRun(uncached.bytes());
}

Status ApplyPushBatch(NodeState& node, Slice payload,
                      const PushPolicy& policy) {
  Slice records;
  HG_RETURN_IF_ERROR(
      FlatBatchCodec::Records(payload, policy.msg_size, &records));
  return AdmitPushRecords(node, node.inbox_next, records, policy);
}

Status DrainStagedPushBatches(NodeState& node, uint32_t num_nodes,
                              const PushPolicy& policy) {
  for (uint32_t src = 0; src < num_nodes; ++src) {
    for (const auto& payload : node.push_staged[src]) {
      HG_RETURN_IF_ERROR(ApplyPushBatch(
          node, Slice(payload.data(), payload.size()), policy));
    }
    node.push_staged[src].clear();
  }
  return Status::OK();
}

Status CollectPushMessages(NodeState& node, const PushPolicy& policy) {
  // Merge the in-memory inbox with the spilled runs, grouped per vertex.
  MessageInbox& inbox = node.inbox_cur;
  const RecordSlab& mem = inbox.mem;
  for (size_t i = 0; i < mem.count(); ++i) {
    node.pending.Add(node.LocalIdx(mem.dst(i)), mem.payload(i));
  }
  if (inbox.spill->num_runs() > 0) {
    // Streaming k-way merge: never materializes the spilled volume. The
    // drain's working set is the pending map plus num_runs ×
    // spill_merge_buffer_bytes of run buffers. The node's ReadPipeline (when
    // on) double-buffers each run's next chunk behind the consume loop.
    HG_ASSIGN_OR_RETURN(auto it, inbox.spill->NewMergeIterator(
                                     policy.spill_merge_buffer_bytes,
                                     node.pipeline.get()));
    while (it->Valid()) {
      node.pending.Add(node.LocalIdx(it->dst()), it->payload());
      HG_RETURN_IF_ERROR(it->Next());
    }
    node.io.msg_spill_read += it->entries_read() * (4 + policy.msg_size);
    node.cpu_seconds += policy.per_spilled_message_s *
                        static_cast<double>(it->entries_read());
    node.spill_buffer_peak =
        std::max(node.spill_buffer_peak, it->buffer_bytes());
    node.spill_resident_peak =
        std::max(node.spill_resident_peak, it->peak_resident_entries());
    node.mem_highwater = std::max(node.mem_highwater, it->buffer_bytes());
    HG_RETURN_IF_ERROR(inbox.spill->Clear());
  }
  // pushM: online accumulators are this superstep's messages for cached
  // vertices.
  if (policy.online_compute) {
    for (uint32_t li = 0; li < node.moc_has.size(); ++li) {
      if (node.moc_has[li]) {
        if (policy.combiner != nullptr) {
          node.pending.Add(
              li, node.moc_acc.data() + static_cast<size_t>(li) * policy.msg_size);
        }
        node.moc_has[li] = 0;
      }
    }
  }
  inbox.ClearMem();
  return Status::OK();
}

Status CollectBPullMessages(NodeState& node, const RangePartition& partition,
                            Transport& transport,
                            const BPullCollectPolicy& policy) {
  // Algorithm 1 (Pull-Request). The request_mask (adaptive adverts) drops
  // (destination, Vblock) pairs whose response would provably be empty;
  // dedup_requests batches the survivors into one round trip per
  // destination. Per-destination-vertex arrival order is the same in every
  // variant — ascending serving node, then the server's ascending source
  // Vblock — so the pending-set fold is unaffected by either option.
  const uint32_t first_vb = partition.FirstVblockOf(node.id);
  const uint32_t last_vb = partition.LastVblockOf(node.id);
  const auto wanted = [&](uint32_t y, uint32_t vb) {
    return policy.request_mask == nullptr ||
           (*policy.request_mask)[y][vb - first_vb] != 0;
  };

  Buffer req;
  Encoder enc(&req);
  std::vector<uint8_t> response;
  // Destination ids come off the wire: a group outside the requested
  // target Vblocks (`requested(vb)`) is rejected before it indexes pending.
  const auto ingest = [&](auto requested) -> Status {
    // BR memory accounting; pre-pull (combinable only) doubles BR.
    node.mem_highwater = std::max<uint64_t>(
        node.mem_highwater, response.size() * (policy.prepull_double ? 2 : 1));
    return GroupedBatchCodec::ForEach(
        Slice(response), policy.msg_size,
        [&](uint32_t dst, const uint8_t* payloads, uint64_t n) -> Status {
          if (!node.range.Contains(dst) ||
              !requested(partition.VblockOf(dst))) {
            return Status::InvalidArgument(
                "pull response group for a vertex that was not requested");
          }
          for (uint64_t k = 0; k < n; ++k) {
            node.pending.Add(node.LocalIdx(dst),
                             payloads + k * policy.msg_size);
          }
          return Status::OK();
        });
  };

  if (policy.dedup_requests) {
    // Request–respond: one batched request per destination node.
    for (uint32_t y = 0; y < policy.num_nodes; ++y) {
      uint32_t count = 0;
      for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
        if (wanted(y, vb)) ++count;
      }
      if (count == 0) continue;
      req.Clear();
      enc.PutFixed32(count);
      for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
        if (wanted(y, vb)) enc.PutFixed32(vb);
      }
      ++node.pull_requests;
      HG_RETURN_IF_ERROR(transport.Call(node.id, y, RpcMethod::kPullRequest,
                                        req.AsSlice(), &response));
      HG_RETURN_IF_ERROR(
          ingest([&](uint32_t vb) { return wanted(y, vb); }));
    }
    return Status::OK();
  }

  for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
    for (uint32_t y = 0; y < policy.num_nodes; ++y) {
      if (!wanted(y, vb)) continue;
      req.Clear();
      enc.PutFixed32(vb);
      ++node.pull_requests;
      HG_RETURN_IF_ERROR(transport.Call(node.id, y, RpcMethod::kPullRequest,
                                        req.AsSlice(), &response));
      HG_RETURN_IF_ERROR(
          ingest([vb](uint32_t dst_vb) { return dst_vb == vb; }));
    }
  }
  return Status::OK();
}

Status DecodePullRequestTargets(Slice payload,
                                std::vector<uint32_t>* targets) {
  targets->clear();
  Decoder dec(payload);
  if (payload.size() == 4) {
    uint32_t vb = 0;
    HG_RETURN_IF_ERROR(dec.GetFixed32(&vb));
    targets->push_back(vb);
    return Status::OK();
  }
  uint32_t count = 0;
  HG_RETURN_IF_ERROR(dec.GetFixed32(&count));
  if (payload.size() != 4 + static_cast<size_t>(count) * 4) {
    return Status::Corruption("pull request target count mismatch");
  }
  targets->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t vb = 0;
    HG_RETURN_IF_ERROR(dec.GetFixed32(&vb));
    targets->push_back(vb);
  }
  return Status::OK();
}

Status FlushStagedMessages(NodeState& node, Transport& transport, NodeId dst,
                           bool force, uint64_t sending_threshold_bytes) {
  const RecordSlab& staged = node.staging.records(dst);
  if (staged.empty()) return Status::OK();
  if (!force && staged.bytes().size() < sending_threshold_bytes) {
    return Status::OK();
  }

  Buffer payload;
  FlatBatchCodec::Encode(staged, &payload);
  node.msgs_wire += staged.count();
  node.staging.Clear(dst);
  ++node.flushes;
  return transport.Post(node.id, dst, RpcMethod::kPushMessages,
                        payload.AsSlice());
}

}  // namespace hybridgraph
