#include "net/transport.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace hybridgraph {

void FrameHeader::EncodeTo(Encoder* enc) const {
  enc->PutFixed32(src);
  enc->PutFixed32(dst);
  enc->PutFixed16(static_cast<uint16_t>(method));
  enc->PutFixed32(payload_size);
}

Status FrameHeader::DecodeFrom(Decoder* dec, FrameHeader* out) {
  uint16_t method = 0;
  HG_RETURN_IF_ERROR(dec->GetFixed32(&out->src));
  HG_RETURN_IF_ERROR(dec->GetFixed32(&out->dst));
  HG_RETURN_IF_ERROR(dec->GetFixed16(&method));
  HG_RETURN_IF_ERROR(dec->GetFixed32(&out->payload_size));
  out->method = static_cast<RpcMethod>(method);
  return Status::OK();
}

void Transport::RegisterHandler(NodeId node, RpcMethod method,
                                Handler handler) {
  HG_CHECK_LT(node, num_nodes_);
  std::lock_guard<std::mutex> lock(handlers_mutex_);
  handlers_[{node, static_cast<uint16_t>(method)}] = std::move(handler);
}

void Transport::MeterFrame(NodeId src, NodeId dst, uint64_t bytes) {
  // Each endpoint's meter under its own lock, one at a time (never nested),
  // so concurrent senders can meter without a global bottleneck.
  {
    std::lock_guard<std::mutex> lock(meter_mutexes_[src]);
    meters_[src].bytes_sent += bytes;
    meters_[src].frames_sent += 1;
  }
  {
    std::lock_guard<std::mutex> lock(meter_mutexes_[dst]);
    meters_[dst].bytes_received += bytes;
    meters_[dst].frames_received += 1;
  }
}

Status Transport::Dispatch(const FrameHeader& hdr, Slice payload,
                           Buffer* response) {
  Handler handler;
  {
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    auto it = handlers_.find({hdr.dst, static_cast<uint16_t>(hdr.method)});
    if (it == handlers_.end()) {
      return Status::NetworkError(StringFormat(
          "no handler for method %u at node %u",
          static_cast<unsigned>(hdr.method), static_cast<unsigned>(hdr.dst)));
    }
    handler = it->second;
  }
  // Serialize handler execution per destination: a simulated node services
  // one incoming frame at a time, exactly like a single-threaded server
  // loop, while different destinations are served concurrently. Handlers
  // must not send through the transport (the engines stage outgoing work
  // and flush it from their own phase instead), so no nested dispatch locks
  // are ever taken.
  std::lock_guard<std::mutex> lock(dispatch_mutexes_[hdr.dst]);
  return handler(hdr.src, payload, response);
}

Status InProcTransport::Deliver(NodeId src, NodeId dst, RpcMethod method,
                                Slice payload, Buffer* response) {
  if (src >= num_nodes_ || dst >= num_nodes_) {
    return Status::InvalidArgument("node id out of range");
  }
  FrameHeader hdr{src, dst, method, static_cast<uint32_t>(payload.size())};
  // Serialize the frame even for local delivery: the receiver always decodes
  // from bytes, so the wire format is exercised on every path.
  Buffer frame;
  Encoder enc(&frame);
  hdr.EncodeTo(&enc);
  enc.PutRaw(payload.data(), payload.size());

  if (ShouldMeter(src, dst)) {
    MeterFrame(src, dst, frame.size());
  }

  Decoder dec(frame.AsSlice());
  FrameHeader decoded;
  HG_RETURN_IF_ERROR(FrameHeader::DecodeFrom(&dec, &decoded));
  Slice body;
  HG_RETURN_IF_ERROR(dec.GetRaw(decoded.payload_size, &body));
  return Dispatch(decoded, body, response);
}

Status InProcTransport::Post(NodeId src, NodeId dst, RpcMethod method,
                             Slice payload) {
  Buffer ignored;
  return Deliver(src, dst, method, payload, &ignored);
}

Status InProcTransport::Call(NodeId src, NodeId dst, RpcMethod method,
                             Slice payload, std::vector<uint8_t>* response) {
  Buffer resp;
  HG_RETURN_IF_ERROR(Deliver(src, dst, method, payload, &resp));
  if (ShouldMeter(src, dst)) {
    MeterFrame(dst, src, FrameHeader::kEncodedSize + resp.size());
  }
  *response = resp.TakeBytes();
  return Status::OK();
}

uint64_t Transport::TotalBytesSent() const {
  uint64_t total = 0;
  for (const auto& m : meters_) total += m.bytes_sent;
  return total;
}

}  // namespace hybridgraph
