// Cluster transport: serialized, metered message passing between the
// simulated computational nodes.
//
// Everything that crosses "the network" is encoded into a frame (header +
// payload bytes) by the sender and decoded by the receiver, so serialized
// byte counts — the quantity the paper's C_net is made of — are ground truth,
// not estimates. Dispatch is synchronous and deterministic (single-process),
// which keeps every experiment exactly reproducible; modeled network time is
// derived from the byte meters, mirroring how modeled disk time is derived
// from DiskMeter.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/buffer.h"
#include "util/codec.h"
#include "util/status.h"

namespace hybridgraph {

using NodeId = uint32_t;

/// RPC method identifiers carried in every frame header.
enum class RpcMethod : uint16_t {
  kPushMessages = 1,   ///< push: one-way batch of (dst vertex, value) messages
  kPullRequest = 2,    ///< b-pull: request messages for one Vblock
  kPullResponse = 3,   ///< b-pull: message batch answering a pull request
  kGatherPartial = 4,  ///< v-pull (GAS): partial gather sum to the master
  kApplyBroadcast = 5, ///< v-pull (GAS): new vertex value to mirrors
  kControl = 6,        ///< barrier / aggregator traffic
  kPullAdvert = 8,     ///< adaptive: which of the receiver's Vblocks the
                       ///< sender decided pull for (absent Vblocks need no
                       ///< pull-request round trip next superstep)
  kServeIngest = 9,    ///< hg_serve: client submits one edge batch
  kServeGet = 10,      ///< hg_serve: client asks for one vertex's value
  kServeTopK = 11,     ///< hg_serve: client asks for the K largest values
  kServeStats = 12,    ///< hg_serve: client asks for server/epoch metrics
};

/// \brief Network throughput profile (Table 3: s_net).
struct NetProfile {
  std::string name;
  double mbps;

  static NetProfile LocalGigabit() { return {"local-1GbE", 112.0}; }
  static NetProfile AmazonGigabit() { return {"amazon-1GbE", 116.0}; }

  double SecondsFor(uint64_t bytes) const {
    return static_cast<double>(bytes) / (mbps * 1024.0 * 1024.0);
  }
};

/// \brief Per-node traffic meter.
struct NetMeter {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;

  void Reset() { *this = NetMeter{}; }

  NetMeter DeltaSince(const NetMeter& earlier) const {
    NetMeter d;
    d.bytes_sent = bytes_sent - earlier.bytes_sent;
    d.bytes_received = bytes_received - earlier.bytes_received;
    d.frames_sent = frames_sent - earlier.frames_sent;
    d.frames_received = frames_received - earlier.frames_received;
    return d;
  }
};

/// \brief Cumulative transport-level fault/recovery counters. In-process
/// transport never faults (all zeros); TcpTransport counts every retried
/// attempt, every per-call timeout, and every connection re-establishment.
/// The engines snapshot these per superstep into SuperstepMetrics.
struct TransportFaultCounters {
  uint64_t retries = 0;     ///< attempts beyond the first, any cause
  uint64_t timeouts = 0;    ///< attempts that failed by exceeding the deadline
  uint64_t reconnects = 0;  ///< persistent connections re-established

  TransportFaultCounters DeltaSince(const TransportFaultCounters& earlier) const {
    return {retries - earlier.retries, timeouts - earlier.timeouts,
            reconnects - earlier.reconnects};
  }
};

/// Wire frame header: src, dst, method, payload length. Encoded size is
/// charged to both endpoints on every frame (per-connection overhead).
struct FrameHeader {
  NodeId src;
  NodeId dst;
  RpcMethod method;
  uint32_t payload_size;

  void EncodeTo(Encoder* enc) const;
  static Status DecodeFrom(Decoder* dec, FrameHeader* out);
  static constexpr size_t kEncodedSize = 4 + 4 + 2 + 4;
};

/// \brief Abstract cluster transport.
///
/// Handlers are registered per (node, method). `Call` performs a synchronous
/// request/response round trip; `Post` delivers a one-way frame (the BSP
/// engines provide their own buffering/flow control above this). Both are
/// fully serialized/deserialized and metered regardless of implementation.
class Transport {
 public:
  using Handler =
      std::function<Status(NodeId src, Slice payload, Buffer* response)>;

  explicit Transport(uint32_t num_nodes)
      : num_nodes_(num_nodes),
        meters_(num_nodes),
        meter_mutexes_(new std::mutex[num_nodes]),
        dispatch_mutexes_(new std::mutex[num_nodes]) {}
  virtual ~Transport() = default;

  uint32_t num_nodes() const { return num_nodes_; }

  /// Registers the handler invoked when `method` arrives at `node`. Must
  /// happen before Start().
  virtual void RegisterHandler(NodeId node, RpcMethod method, Handler handler);

  /// Makes the transport ready to carry traffic (no-op for in-process).
  virtual Status Start() { return Status::OK(); }

  /// One-way delivery: frame is serialized, metered on both sides, and the
  /// destination handler runs. Any response bytes are discarded.
  virtual Status Post(NodeId src, NodeId dst, RpcMethod method,
                      Slice payload) = 0;

  /// Request/response: like Post but the handler's response buffer is
  /// serialized back, metered in the reverse direction, and returned.
  virtual Status Call(NodeId src, NodeId dst, RpcMethod method, Slice payload,
                      std::vector<uint8_t>* response) = 0;

  /// Meter access is only consistent when no frames are in flight (the
  /// engines read meters between phases, under the superstep barrier).
  NetMeter* meter(NodeId node) { return &meters_.at(node); }
  const NetMeter& meter(NodeId node) const { return meters_.at(node); }

  /// Sum of bytes_sent across nodes (= total traffic in one direction).
  uint64_t TotalBytesSent() const;

  /// Snapshot of fault/recovery counters. Like the byte meters, only
  /// consistent between phases.
  virtual TransportFaultCounters fault_counters() const { return {}; }

  /// Local (same-node) frames are still serialized but, like the paper's
  /// systems, do not cross the NIC; by default they are not metered.
  void set_meter_local_traffic(bool v) { meter_local_traffic_ = v; }

 protected:
  /// Looks up the handler and runs it under the destination node's dispatch
  /// mutex, so concurrent senders targeting the same node are serialized (a
  /// simulated node is single-threaded from its own point of view) while
  /// traffic to distinct nodes proceeds in parallel.
  Status Dispatch(const FrameHeader& hdr, Slice payload, Buffer* response);
  /// Updates both endpoints' meters, each under its own per-node mutex.
  void MeterFrame(NodeId src, NodeId dst, uint64_t bytes);
  bool ShouldMeter(NodeId src, NodeId dst) const {
    return meter_local_traffic_ || src != dst;
  }

  uint32_t num_nodes_;
  std::vector<NetMeter> meters_;
  /// meter_mutexes_[n] guards meters_[n]; never held together with another
  /// meter mutex or a dispatch mutex, so there is no lock ordering to get
  /// wrong.
  std::unique_ptr<std::mutex[]> meter_mutexes_;
  /// dispatch_mutexes_[dst] serializes handler execution at node `dst`.
  std::unique_ptr<std::mutex[]> dispatch_mutexes_;
  mutable std::mutex handlers_mutex_;  ///< registration vs dispatch threads
  std::map<std::pair<NodeId, uint16_t>, Handler> handlers_;
  bool meter_local_traffic_ = false;
};

/// \brief In-process transport: frames are serialized and dispatched
/// synchronously in the caller's thread. Deterministic; the default.
class InProcTransport : public Transport {
 public:
  explicit InProcTransport(uint32_t num_nodes) : Transport(num_nodes) {}

  Status Post(NodeId src, NodeId dst, RpcMethod method, Slice payload) override;
  Status Call(NodeId src, NodeId dst, RpcMethod method, Slice payload,
              std::vector<uint8_t>* response) override;

 private:
  /// Frames, meters and dispatches one request; the handler's answer lands
  /// in `*response` unmetered.
  Status Deliver(NodeId src, NodeId dst, RpcMethod method, Slice payload,
                 Buffer* response);
};

}  // namespace hybridgraph
