#include "serve/serve_protocol.h"

#include "util/codec.h"

namespace hybridgraph {

void EncodeIngestRequest(const EdgeBatch& batch, Buffer* out) {
  Encoder enc(out);
  enc.PutFixed64(batch.timestamp);
  EncodeDeltas(batch.deltas, &enc);
}

Status DecodeIngestRequest(Slice payload, EdgeBatch* out) {
  Decoder dec{payload};
  out->deltas.clear();
  HG_RETURN_IF_ERROR(dec.GetFixed64(&out->timestamp));
  HG_RETURN_IF_ERROR(DecodeDeltas(&dec, &out->deltas));
  if (!dec.AtEnd()) return Status::Corruption("trailing bytes in ingest request");
  return Status::OK();
}

void EncodeIngestResponse(const IngestResponse& r, Buffer* out) {
  Encoder enc(out);
  enc.PutFixed64(r.accepted);
  enc.PutFixed64(r.queue_depth);
}

Status DecodeIngestResponse(Slice payload, IngestResponse* out) {
  Decoder dec{payload};
  HG_RETURN_IF_ERROR(dec.GetFixed64(&out->accepted));
  HG_RETURN_IF_ERROR(dec.GetFixed64(&out->queue_depth));
  if (!dec.AtEnd()) return Status::Corruption("trailing bytes in ingest response");
  return Status::OK();
}

void EncodeGetRequest(uint32_t vertex, Buffer* out) {
  Encoder enc(out);
  enc.PutFixed32(vertex);
}

Status DecodeGetRequest(Slice payload, uint32_t* out) {
  Decoder dec{payload};
  HG_RETURN_IF_ERROR(dec.GetFixed32(out));
  if (!dec.AtEnd()) return Status::Corruption("trailing bytes in get request");
  return Status::OK();
}

void EncodeGetResponse(const GetResponse& r, Buffer* out) {
  Encoder enc(out);
  enc.PutFixed64(r.epoch);
  enc.PutFixed64(r.timestamp);
  enc.PutDouble(r.value);
}

Status DecodeGetResponse(Slice payload, GetResponse* out) {
  Decoder dec{payload};
  HG_RETURN_IF_ERROR(dec.GetFixed64(&out->epoch));
  HG_RETURN_IF_ERROR(dec.GetFixed64(&out->timestamp));
  HG_RETURN_IF_ERROR(dec.GetDouble(&out->value));
  if (!dec.AtEnd()) return Status::Corruption("trailing bytes in get response");
  return Status::OK();
}

void EncodeTopKRequest(uint32_t k, Buffer* out) {
  Encoder enc(out);
  enc.PutVarint32(k);
}

Status DecodeTopKRequest(Slice payload, uint32_t* out) {
  Decoder dec{payload};
  HG_RETURN_IF_ERROR(dec.GetVarint32(out));
  if (!dec.AtEnd()) return Status::Corruption("trailing bytes in topk request");
  return Status::OK();
}

void EncodeTopKResponse(const TopKResponse& r, Buffer* out) {
  Encoder enc(out);
  enc.PutFixed64(r.epoch);
  enc.PutFixed64(r.timestamp);
  enc.PutVarint64(r.entries.size());
  for (const auto& e : r.entries) {
    enc.PutFixed32(e.vertex);
    enc.PutDouble(e.value);
  }
}

Status DecodeTopKResponse(Slice payload, TopKResponse* out) {
  Decoder dec{payload};
  out->entries.clear();
  HG_RETURN_IF_ERROR(dec.GetFixed64(&out->epoch));
  HG_RETURN_IF_ERROR(dec.GetFixed64(&out->timestamp));
  uint64_t count = 0;
  HG_RETURN_IF_ERROR(dec.GetVarint64(&count));
  // An entry is exactly 12 bytes, so a count the rest cannot hold is corrupt
  // (and must not reach reserve()).
  if (count > dec.remaining() / 12) {
    return Status::Corruption("topk entry count exceeds response size");
  }
  out->entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TopKEntry e;
    HG_RETURN_IF_ERROR(dec.GetFixed32(&e.vertex));
    HG_RETURN_IF_ERROR(dec.GetDouble(&e.value));
    out->entries.push_back(e);
  }
  if (!dec.AtEnd()) return Status::Corruption("trailing bytes in topk response");
  return Status::OK();
}

void EncodeStatsResponse(const StatsResponse& r, Buffer* out) {
  Encoder enc(out);
  enc.PutFixed64(r.snapshot_epoch);
  enc.PutFixed64(r.snapshot_timestamp);
  enc.PutFixed64(r.epochs_committed);
  enc.PutFixed64(r.queue_depth);
  enc.PutFixed64(r.batches_ingested);
  enc.PutDouble(r.staleness_s);
  enc.PutLengthPrefixed(r.metrics_json);
}

Status DecodeStatsResponse(Slice payload, StatsResponse* out) {
  Decoder dec{payload};
  HG_RETURN_IF_ERROR(dec.GetFixed64(&out->snapshot_epoch));
  HG_RETURN_IF_ERROR(dec.GetFixed64(&out->snapshot_timestamp));
  HG_RETURN_IF_ERROR(dec.GetFixed64(&out->epochs_committed));
  HG_RETURN_IF_ERROR(dec.GetFixed64(&out->queue_depth));
  HG_RETURN_IF_ERROR(dec.GetFixed64(&out->batches_ingested));
  HG_RETURN_IF_ERROR(dec.GetDouble(&out->staleness_s));
  Slice json;
  HG_RETURN_IF_ERROR(dec.GetLengthPrefixed(&json));
  out->metrics_json.assign(reinterpret_cast<const char*>(json.data()),
                           json.size());
  if (!dec.AtEnd()) return Status::Corruption("trailing bytes in stats response");
  return Status::OK();
}

}  // namespace hybridgraph
