#include "core/engine_checkpoint.h"

#include <algorithm>
#include <utility>

#include "io/message_spill.h"
#include "net/message_codec.h"
#include "util/codec.h"
#include "util/failpoint.h"
#include "util/record_slab.h"
#include "util/string_util.h"

namespace hybridgraph {

namespace ckpt_detail {
constexpr uint32_t kMagic = 0x48474350;  // "HGCP"
// v2 appends an FNV-1a checksum trailer over the whole image, so a torn
// write (crash mid-checkpoint) is detected at restore instead of decoding
// garbage. v1 images (no trailer) are no longer accepted.
constexpr uint32_t kVersion = 2;
constexpr size_t kTrailerSize = 8;
}  // namespace ckpt_detail

Status WriteEngineCheckpoint(std::vector<NodeState>& nodes,
                             const RangePartition& partition,
                             const CheckpointState& state, Buffer* out) {
  const size_t image_start = out->size();
  Encoder enc(out);
  enc.PutFixed32(ckpt_detail::kMagic);
  enc.PutFixed32(ckpt_detail::kVersion);
  enc.PutVarint64(static_cast<uint64_t>(*state.superstep));
  enc.PutU8(static_cast<uint8_t>(*state.mode));
  enc.PutU8(static_cast<uint8_t>(*state.prev_produce));
  enc.PutU8(*state.converged ? 1 : 0);
  enc.PutSignedVarint64(state.hybrid->last_switch_superstep);
  enc.PutDouble(state.hybrid->last_rco);
  enc.PutVarint64(state.hybrid->prev_responding);
  enc.PutDouble(*state.prev_aggregate);

  std::vector<uint8_t> values;
  for (auto& node : nodes) {
    // Per-node fail-point: a crash here leaves a partial image with no
    // checksum trailer — exactly the torn write RestoreCheckpoint must
    // reject (see recovery_test).
    HG_FAIL_POINT("ckpt.write");
    // Vertex values, per Vblock.
    for (uint32_t vb = partition.FirstVblockOf(node.id);
         vb < partition.LastVblockOf(node.id); ++vb) {
      HG_RETURN_IF_ERROR(node.vstore->ReadBlock(vb, &values, IoClass::kSeqRead));
      enc.PutLengthPrefixed(Slice(values.data(), values.size()));
    }
    // Flags.
    enc.PutLengthPrefixed(Slice(node.active.data(), node.active.size()));
    enc.PutLengthPrefixed(
        Slice(node.responding.data(), node.responding.size()));
    enc.PutLengthPrefixed(
        Slice(node.vblock_res.data(), node.vblock_res.size()));
    // Undelivered messages as one flat batch of records: the memory
    // inbox (encoded in place), then, gathered in `rest`, the merged spill
    // runs and one (dst, acc) record per set pushM accumulator (only
    // combining programs keep accumulators).
    const size_t msg_size = node.inbox_cur.mem.payload_size();
    RecordSlab rest(msg_size);
    HG_RETURN_IF_ERROR(node.inbox_cur.spill->MergeReadAll(&rest));
    for (uint32_t li = 0; li < node.moc_has.size(); ++li) {
      if (node.moc_has[li] && !node.moc_acc.empty()) {
        rest.Append(node.range.begin + li,
                    node.moc_acc.data() + li * msg_size);
      }
    }
    FlatBatchCodec::Encode(node.inbox_cur.mem, out, rest);
  }
  enc.PutFixed64(
      Fnv1a64(out->data() + image_start, out->size() - image_start));
  return Status::OK();
}

Status RestoreEngineCheckpoint(std::vector<NodeState>& nodes,
                               const RangePartition& partition,
                               const PushPolicy& policy,
                               const CheckpointState& state, Slice data,
                               int* supersteps_run) {
  HG_FAIL_POINT("ckpt.restore");
  if (data.size() < 8 + ckpt_detail::kTrailerSize) {
    return Status::Corruption("checkpoint image too small");
  }
  const size_t body_size = data.size() - ckpt_detail::kTrailerSize;
  {
    Decoder trailer(
        Slice(data.data() + body_size, ckpt_detail::kTrailerSize));
    uint64_t stored = 0;
    HG_RETURN_IF_ERROR(trailer.GetFixed64(&stored));
    if (stored != Fnv1a64(data.data(), body_size)) {
      return Status::Corruption(
          "checkpoint checksum mismatch (torn or corrupted image)");
    }
  }
  data = Slice(data.data(), body_size);
  Decoder dec(data);
  uint32_t magic = 0, version = 0;
  HG_RETURN_IF_ERROR(dec.GetFixed32(&magic));
  HG_RETURN_IF_ERROR(dec.GetFixed32(&version));
  if (magic != ckpt_detail::kMagic) return Status::Corruption("bad checkpoint magic");
  if (version != ckpt_detail::kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  uint64_t superstep = 0, prev_resp = 0;
  uint8_t mode = 0, prev_produce = 0, converged = 0;
  int64_t last_switch = 0;
  HG_RETURN_IF_ERROR(dec.GetVarint64(&superstep));
  HG_RETURN_IF_ERROR(dec.GetU8(&mode));
  HG_RETURN_IF_ERROR(dec.GetU8(&prev_produce));
  for (const uint8_t m : {mode, prev_produce}) {
    if (m >= kNumEngineModes || ((state.installed_modes >> m) & 1) == 0) {
      return Status::InvalidArgument(StringFormat(
          "checkpoint mode byte %u names no path this engine installed",
          static_cast<unsigned>(m)));
    }
  }
  HG_RETURN_IF_ERROR(dec.GetU8(&converged));
  HG_RETURN_IF_ERROR(dec.GetSignedVarint64(&last_switch));
  HG_RETURN_IF_ERROR(dec.GetDouble(&state.hybrid->last_rco));
  HG_RETURN_IF_ERROR(dec.GetVarint64(&prev_resp));
  HG_RETURN_IF_ERROR(dec.GetDouble(state.prev_aggregate));
  *state.superstep = static_cast<int>(superstep);
  *state.mode = static_cast<EngineMode>(mode);
  *state.prev_produce = static_cast<EngineMode>(prev_produce);
  *state.converged = converged != 0;
  state.hybrid->last_switch_superstep = static_cast<int>(last_switch);
  state.hybrid->prev_responding = prev_resp;

  auto restore_flags = [&](std::vector<uint8_t>* flags) -> Status {
    Slice raw;
    HG_RETURN_IF_ERROR(dec.GetLengthPrefixed(&raw));
    if (raw.size() != flags->size()) {
      return Status::Corruption("checkpoint flag size mismatch");
    }
    std::copy(raw.data(), raw.data() + raw.size(), flags->begin());
    return Status::OK();
  };

  for (auto& node : nodes) {
    // Drop every undelivered message first, spills included: recovery may
    // restore into storage that still holds a dead incarnation's runs
    // (including unregistered orphans a mid-spill crash left behind).
    HG_RETURN_IF_ERROR(ResetEpochState(node));
    for (uint32_t vb = partition.FirstVblockOf(node.id);
         vb < partition.LastVblockOf(node.id); ++vb) {
      Slice raw;
      HG_RETURN_IF_ERROR(dec.GetLengthPrefixed(&raw));
      std::vector<uint8_t> values(raw.data(), raw.data() + raw.size());
      HG_RETURN_IF_ERROR(
          node.vstore->WriteBlock(vb, values, IoClass::kSeqWrite));
    }
    HG_RETURN_IF_ERROR(restore_flags(&node.active));
    HG_RETURN_IF_ERROR(restore_flags(&node.responding));
    HG_RETURN_IF_ERROR(restore_flags(&node.vblock_res));

    Slice records;
    HG_RETURN_IF_ERROR(FlatBatchCodec::Read(&dec, policy.msg_size, &records));
    HG_RETURN_IF_ERROR(
        AdmitPushRecords(node, node.inbox_cur, records, policy));
  }
  if (!dec.AtEnd()) return Status::Corruption("trailing checkpoint bytes");
  *supersteps_run = *state.superstep;
  return Status::OK();
}

}  // namespace hybridgraph
