// The vpull MessagePath: a faithful reimplementation of the GraphLab
// PowerGraph execution model (synchronous GAS over a vertex-cut), extended —
// exactly like the paper's Sec 6 modification — with disk-resident edges and
// an LRU-managed disk-resident vertex table.
//
// Partitioning: edges are hash-partitioned across nodes (vertex-cut); every
// vertex has a hash-assigned master, and a replica on each node that holds
// any of its edges. Per superstep (mapped onto the engine's phases):
//   Gather  (Consume)      — each node sequentially scans its local edge
//             blob; for every edge (u,v) with a responding u it reads u's
//             replica value (LRU cache over the on-disk vertex table: the
//             random-read storm that makes this baseline I/O-inefficient),
//             computes the edge message and folds it into a local partial
//             aggregate for v.
//   Sum     (AfterConsume) — partial aggregates ship to v's master.
//   Apply   (UpdateProduce)— the master runs update() on the combined
//             gather result.
//   Scatter (AfterProduce) — the new value (and responding flag) broadcasts
//             to all replica nodes (the vertex-cut mirror-synchronization
//             traffic), which write it back through the LRU cache (dirty
//             evictions become random writes).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine_setup.h"
#include "core/lru_cache.h"
#include "core/message_path.h"
#include "io/prefetch.h"
#include "io/storage.h"
#include "net/message_codec.h"
#include "util/codec.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hybridgraph {

template <typename P>
class VPullPath : public MessagePath<P> {
 public:
  using Value = typename P::Value;
  using Message = typename P::Message;

  /// Owns its storage and vertex-cut layout (no block topology); predates
  /// aggregator support and never switches modes.
  explicit VPullPath(Engine<P>* engine)
      : MessagePath<P>({.supports_aggregator = false, .hybrid_metrics = false}),
        engine_(engine) {}

  EngineMode mode() const override { return EngineMode::kVPull; }

  Status Build(const EdgeListGraph& graph) override {
    const JobConfig& config = engine_->config();
    const uint32_t T = config.num_nodes;
    out_degrees_ = graph.OutDegrees();
    engine_->set_transport(MakeTransport(config));
    nodes_.resize(T);

    // Assign edges (vertex-cut) and discover replica sets.
    std::vector<std::vector<RawEdge>> local_edges(T);
    for (const auto& e : graph.edges) {
      local_edges[EdgeHome(e)].push_back(e);
    }

    for (uint32_t i = 0; i < T; ++i) {
      GasNode& node = nodes_[i];
      node.id = i;
      HG_ASSIGN_OR_RETURN(
          node.storage,
          MakeNodeStorage(config, "gas" + std::to_string(i)));
      node.pipeline = engine_->MakeReadPipeline(node.storage.get(), i);

      auto intern = [&](VertexId v) -> uint32_t {
        auto it = node.replica_idx.find(v);
        if (it != node.replica_idx.end()) return it->second;
        const uint32_t idx = static_cast<uint32_t>(node.replica_vertex.size());
        node.replica_idx.emplace(v, idx);
        node.replica_vertex.push_back(v);
        return idx;
      };

      // Edge blob in shard-hash order: GraphLab's edge shards carry no vertex
      // id locality, so the gather scan must not hand the LRU a sorted order.
      std::sort(local_edges[i].begin(), local_edges[i].end(),
                [](const RawEdge& a, const RawEdge& b) {
                  auto h = [](const RawEdge& e) {
                    uint64_t x = (static_cast<uint64_t>(e.src) << 32) | e.dst;
                    x *= 0x9E3779B97F4A7C15ULL;
                    return x ^ (x >> 29);
                  };
                  return h(a) < h(b);
                });
      Buffer buf;
      Encoder enc(&buf);
      for (const auto& e : local_edges[i]) {
        intern(e.src);
        intern(e.dst);
        enc.PutFixed32(e.src);
        enc.PutFixed32(e.dst);
        enc.PutFloat(e.weight);
      }
      HG_RETURN_IF_ERROR(
          node.storage->Write(EdgeKey(i), buf.AsSlice(), IoClass::kSeqWrite));
      node.num_edges = local_edges[i].size();
      node.edge_bytes = buf.size();
    }

    // Masters own all their hash-assigned vertices (even isolated ones).
    for (VertexId v = 0; v < graph.num_vertices; ++v) {
      nodes_[MasterOf(v)].owned.push_back(v);
    }
    for (uint32_t i = 0; i < T; ++i) {
      for (VertexId v : nodes_[i].owned) {
        auto it = nodes_[i].replica_idx.find(v);
        if (it == nodes_[i].replica_idx.end()) {
          const uint32_t idx =
              static_cast<uint32_t>(nodes_[i].replica_vertex.size());
          nodes_[i].replica_idx.emplace(v, idx);
          nodes_[i].replica_vertex.push_back(v);
        }
      }
    }
    // Replica location lists at the masters.
    for (uint32_t i = 0; i < T; ++i) {
      for (VertexId v : nodes_[i].replica_vertex) {
        nodes_[MasterOf(v)].replica_nodes[v].push_back(i);
      }
    }

    // On-disk vertex tables + LRU caches + initial values.
    for (uint32_t i = 0; i < T; ++i) {
      GasNode& node = nodes_[i];
      Buffer buf;
      Encoder enc(&buf);
      std::vector<uint8_t> tmp(kValueRecord);
      for (VertexId v : node.replica_vertex) {
        const Value val = engine_->program().InitValue(v, engine_->ctx());
        PodCodec<Value>::Encode(val, tmp.data());
        enc.PutRaw(tmp.data(), tmp.size());
      }
      HG_RETURN_IF_ERROR(
          node.storage->Write(VtabKey(i), buf.AsSlice(), IoClass::kSeqWrite));
      node.gather_staged.resize(T);
      node.apply_staged.resize(T);
      node.replica_responding.assign(node.replica_vertex.size(), 0);
      for (VertexId v : node.replica_vertex) {
        if (engine_->program().InitActive(v)) {
          node.replica_responding[node.replica_idx[v]] = 1;
        }
      }
      const size_t cap = static_cast<size_t>(std::min<uint64_t>(
          config.vpull_vertex_cache, node.replica_vertex.size()));
      GasNode* node_ptr = &node;
      node.cache = std::make_unique<LruCache<uint32_t, Value>>(
          std::max<size_t>(1, cap),
          [this, node_ptr](const uint32_t& idx, const Value& value,
                           bool dirty) {
            if (!dirty) return;
            std::vector<uint8_t> tmp2(kValueRecord);
            PodCodec<Value>::Encode(value, tmp2.data());
            // Dirty eviction: random write into the vertex table.
            Status s = node_ptr->storage->WriteRange(
                VtabKey(node_ptr->id), uint64_t{idx} * kValueRecord,
                Slice(tmp2.data(), tmp2.size()), IoClass::kRandWrite);
            HG_CHECK(s.ok()) << s.ToString();
          });

      engine_->transport().RegisterHandler(
          i, RpcMethod::kGatherPartial,
          [node_ptr](NodeId src, Slice payload, Buffer*) {
            node_ptr->gather_staged[src].emplace_back(
                payload.data(), payload.data() + payload.size());
            return Status::OK();
          });
      engine_->transport().RegisterHandler(
          i, RpcMethod::kApplyBroadcast,
          [node_ptr](NodeId src, Slice payload, Buffer*) {
            node_ptr->apply_staged[src].emplace_back(
                payload.data(), payload.data() + payload.size());
            return Status::OK();
          });
    }

    HG_RETURN_IF_ERROR(engine_->transport().Start());

    uint64_t bytes_written = 0;
    for (auto& node : nodes_) {
      bytes_written += node.storage->meter()->WriteBytes();
    }
    LoadMetrics& load = engine_->mutable_stats()->load;
    load.bytes_written = bytes_written;
    load.load_seconds = ModeledLoadSeconds(config, bytes_written);
    return Status::OK();
  }

  void BeginAccounting() override {
    for (auto& node : nodes_) {
      if (node.pipeline) {
        node.pipeline->SetContext(engine_->superstep(),
                                  static_cast<int>(EngineMode::kVPull));
      }
      node.updated = 0;
      node.responded = 0;
      node.msgs_produced = 0;
      node.cpu_seconds = 0;
      node.mem_highwater = 0;
      node.disk_snapshot = *node.storage->meter();
      node.net_snapshot = *engine_->transport().meter(node.id);
    }
  }

  Status Consume(uint32_t i) override {
    if (engine_->superstep() == 0) return Status::OK();
    return GatherNode(nodes_[i]);
  }

  Status AfterConsume(uint32_t i) override {
    return DrainGatherStaged(nodes_[i]);
  }

  Status UpdateProduce(uint32_t i) override {
    return ApplyScatterNode(nodes_[i]);
  }

  Status AfterProduce(uint32_t i) override {
    return DrainApplyStaged(nodes_[i]);
  }

  Status WarmupNextSuperstep(uint32_t i) override {
    GasNode& node = nodes_[i];
    if (!node.pipeline || !node.pipeline->enabled()) return Status::OK();
    // Next superstep's gather re-scans the (immutable) local edge blob;
    // stage it now so the read overlaps the scatter drain. Skipped by the
    // pipeline when the blob exceeds the prefetch byte budget.
    node.pipeline->Schedule(EdgeKey(node.id),
                            ReadOptions{.io_class = IoClass::kSeqRead});
    return Status::OK();
  }

  SuperstepMetrics EndAccounting(EngineMode produce_mode,
                                 bool switched) override {
    (void)produce_mode;
    (void)switched;
    const JobConfig& config = engine_->config();
    SuperstepMetrics m;
    m.superstep = engine_->superstep();
    m.mode = EngineMode::kVPull;
    double max_node_seconds = 0, max_blocking = 0;
    for (auto& node : nodes_) {
      m.messages_produced += node.msgs_produced;
      m.messages_on_wire += node.msgs_produced;
      m.active_vertices += node.updated;
      m.responding_vertices += node.responded;

      const DiskMeter disk =
          node.storage->meter()->DeltaSince(node.disk_snapshot);
      m.io.adj_edge_bytes += disk.bytes(IoClass::kSeqRead);
      m.io.vrr_bytes += disk.bytes(IoClass::kRandRead);
      m.io.other_bytes += disk.bytes(IoClass::kRandWrite) +
                          disk.bytes(IoClass::kSeqWrite);
      const NetMeter net =
          engine_->transport().meter(node.id)->DeltaSince(node.net_snapshot);
      m.net_bytes += net.bytes_sent;
      m.net_frames += net.frames_sent;

      const double io_s =
          config.memory_resident ? 0.0 : disk.ModeledSeconds(config.disk);
      const double net_s =
          config.net.SecondsFor(std::max(net.bytes_sent, net.bytes_received));
      const double work_s = node.cpu_seconds + io_s;
      const double blocking_s = std::max(0.0, net_s - work_s) +
                                config.net.SecondsFor(std::min<uint64_t>(
                                    config.sending_threshold_bytes,
                                    net.bytes_sent));
      m.cpu_seconds += node.cpu_seconds;
      m.io_seconds += io_s;
      m.net_seconds += net_s;
      max_blocking = std::max(max_blocking, blocking_s);
      max_node_seconds = std::max(max_node_seconds, work_s + blocking_s);
      m.memory_highwater_bytes +=
          node.cache->size() * kValueRecord + node.mem_highwater;
      if (node.pipeline) {
        const ReadPipeline::Stats ps = node.pipeline->DrainStats();
        m.prefetch_scheduled += ps.scheduled;
        m.prefetch_hits += ps.hits;
        m.prefetch_misses += ps.misses + ps.fallbacks;
        m.prefetch_hit_bytes += ps.hit_bytes;
      }
    }
    m.blocking_seconds = max_blocking;
    m.superstep_seconds = max_node_seconds;
    return m;
  }

  void Promote(uint64_t* responding_total,
               uint64_t* inflight_messages) override {
    uint64_t responding = 0;
    for (const auto& node : nodes_) responding += node.responded;
    *responding_total = responding;
    *inflight_messages = 0;
  }

  Result<std::vector<Value>> GatherValues() override {
    std::vector<Value> out(engine_->ctx().num_vertices);
    for (auto& node : nodes_) {
      for (VertexId v : node.owned) {
        Value value{};
        HG_RETURN_IF_ERROR(CachedRead(node, node.replica_idx[v], &value));
        out[v] = value;
      }
    }
    return out;
  }

 private:
  static constexpr size_t kMsgSize = P::kMessageSize;
  static constexpr size_t kValueRecord = P::kValueSize;
  /// Modeled software cost of one LRU miss: the GraphLab disk path
  /// deserializes and re-fetches a vertex record per miss, which is what
  /// makes the paper's ext-edge-v2.5 scenario collapse (Table 5).
  static constexpr double kMissPenaltySeconds = 20e-6;

  struct GasNode {
    NodeId id = 0;
    std::unique_ptr<StorageService> storage;
    // Declared after `storage` so its destructor (which cancels and waits
    // out background reads) runs while storage is still alive.
    std::unique_ptr<ReadPipeline> pipeline;

    // Local edge set (on disk as one blob, scanned sequentially).
    uint64_t num_edges = 0;
    uint64_t edge_bytes = 0;

    // Replica table: vertex -> dense local index into the on-disk vertex
    // table; out-degree is global static metadata kept in memory.
    std::unordered_map<VertexId, uint32_t> replica_idx;
    std::vector<VertexId> replica_vertex;  // inverse map
    std::vector<uint8_t> replica_responding;
    std::unique_ptr<LruCache<uint32_t, Value>> cache;

    // Master role: owned vertices and where their replicas live.
    std::vector<VertexId> owned;
    std::unordered_map<VertexId, std::vector<NodeId>> replica_nodes;
    // Gather results arriving at the master.
    std::unordered_map<VertexId, std::vector<Message>> pending;

    // Raw payloads stashed by the RPC handlers, indexed by sender. Handlers
    // run in the sender's thread (under this node's dispatch lock) while
    // this node's own phase task may be running, so they must not touch
    // pending / cache / replica_responding; the staged payloads drain in
    // sender order at the next barrier, which reproduces the sequential
    // arrival order (sender x finished its whole phase before sender x+1).
    std::vector<std::vector<std::vector<uint8_t>>> gather_staged;
    std::vector<std::vector<std::vector<uint8_t>>> apply_staged;

    // Per-superstep counters.
    uint64_t updated = 0;
    uint64_t responded = 0;
    uint64_t msgs_produced = 0;
    double cpu_seconds = 0;
    uint64_t mem_highwater = 0;
    DiskMeter disk_snapshot;
    NetMeter net_snapshot;
  };

  std::string EdgeKey(NodeId n) const {
    return StringFormat("node%u/gas/edges", n);
  }
  std::string VtabKey(NodeId n) const {
    return StringFormat("node%u/gas/vtab", n);
  }

  NodeId MasterOf(VertexId v) const {
    return static_cast<NodeId>((v * 2654435761u) %
                               engine_->config().num_nodes);
  }
  NodeId EdgeHome(const RawEdge& e) const {
    const uint64_t h = (static_cast<uint64_t>(e.src) << 32) | e.dst;
    return static_cast<NodeId>((h * 0x9E3779B97F4A7C15ULL >> 33) %
                               engine_->config().num_nodes);
  }

  /// Reads a replica value through the node's LRU cache.
  Status CachedRead(GasNode& node, uint32_t idx, Value* out) {
    if (Value* hit = node.cache->Get(idx)) {
      *out = *hit;
      return Status::OK();
    }
    node.cache->RecordMiss();
    node.cpu_seconds += kMissPenaltySeconds;
    HG_ASSIGN_OR_RETURN(
        ReadResult rec,
        node.storage->Read(VtabKey(node.id),
                           {.offset = uint64_t{idx} * kValueRecord,
                            .length = kValueRecord,
                            .io_class = IoClass::kRandRead}));
    *out = PodCodec<Value>::Decode(rec.data.data());
    node.cache->Put(idx, *out, /*dirty=*/false);
    return Status::OK();
  }

  /// Writes a replica value through the cache (dirty; evict = random write).
  Status CachedWrite(GasNode& node, uint32_t idx, const Value& value) {
    node.cache->Put(idx, value, /*dirty=*/true);
    return Status::OK();
  }

  Status HandleGatherPartial(GasNode& node, Slice payload) {
    return GroupedBatchCodec::ForEach(
        payload, kMsgSize,
        [&](uint32_t dst, const uint8_t* payloads, uint64_t n) {
          auto& slot = node.pending[dst];
          for (uint64_t k = 0; k < n; ++k) {
            const Message m =
                PodCodec<Message>::Decode(payloads + k * kMsgSize);
            if (P::kCombinable && !slot.empty()) {
              slot[0] = P::Combine(slot[0], m);
            } else {
              slot.push_back(m);
            }
          }
          return Status::OK();
        });
  }

  Status HandleApplyBroadcast(GasNode& node, Slice payload) {
    // (vertex, value, responding) triples from masters to replicas.
    Decoder dec(payload);
    uint64_t count = 0;
    HG_RETURN_IF_ERROR(dec.GetVarint64(&count));
    Slice raw;
    for (uint64_t k = 0; k < count; ++k) {
      uint32_t v = 0;
      uint8_t responding = 0;
      HG_RETURN_IF_ERROR(dec.GetFixed32(&v));
      HG_RETURN_IF_ERROR(dec.GetU8(&responding));
      HG_RETURN_IF_ERROR(dec.GetRaw(kValueRecord, &raw));
      auto it = node.replica_idx.find(v);
      if (it == node.replica_idx.end()) {
        return Status::Internal("broadcast to node without replica");
      }
      const Value value = PodCodec<Value>::Decode(raw.data());
      HG_RETURN_IF_ERROR(CachedWrite(node, it->second, value));
      node.replica_responding[it->second] = responding;
    }
    return Status::OK();
  }

  /// Gather phase for one node (runs as a pool task).
  Status GatherNode(GasNode& node) {
    const JobConfig& config = engine_->config();
    // Gather: scan local edges, read source replicas, build partials.
    // Per destination master node: grouped partial aggregates.
    std::vector<std::unordered_map<VertexId, std::vector<Message>>> partials(
        config.num_nodes);
    const ReadOptions edge_opts{.io_class = IoClass::kSeqRead};
    auto read = node.pipeline
                    ? node.pipeline->Fetch(EdgeKey(node.id), edge_opts)
                    : node.storage->Read(EdgeKey(node.id), edge_opts);
    if (!read.ok()) return read.status();
    const std::vector<uint8_t> raw = std::move(read->data);
    Decoder dec{Slice(raw)};
    Value src_value;
    while (!dec.AtEnd()) {
      RawEdge e;
      HG_RETURN_IF_ERROR(dec.GetFixed32(&e.src));
      HG_RETURN_IF_ERROR(dec.GetFixed32(&e.dst));
      HG_RETURN_IF_ERROR(dec.GetFloat(&e.weight));
      const uint32_t src_idx = node.replica_idx[e.src];
      if (!node.replica_responding[src_idx]) continue;
      HG_RETURN_IF_ERROR(CachedRead(node, src_idx, &src_value));
      const Message msg = engine_->program().GenMessage(
          e.src, src_value, out_degrees_[e.src], {e.dst, e.weight},
          engine_->ctx());
      ++node.msgs_produced;
      node.cpu_seconds += config.cpu.per_edge_s + config.cpu.per_message_s;
      auto& slot = partials[MasterOf(e.dst)][e.dst];
      if (P::kCombinable && !slot.empty()) {
        slot[0] = P::Combine(slot[0], msg);
      } else {
        slot.push_back(msg);
      }
    }
    // Ship partials to masters (the receiving handler only stages the bytes).
    GroupedBatchWriter groups;
    for (uint32_t y = 0; y < config.num_nodes; ++y) {
      if (partials[y].empty()) continue;
      groups.Reset(kMsgSize);
      for (auto& [v, msgs] : partials[y]) {
        const uint32_t g = groups.AddGroup(v);
        for (const Message& msg : msgs) {
          PodCodec<Message>::Encode(msg, groups.Append(g));
        }
      }
      Buffer payload;
      groups.EncodeTo(&payload);
      node.mem_highwater =
          std::max<uint64_t>(node.mem_highwater, payload.size());
      HG_RETURN_IF_ERROR(engine_->transport().Post(
          node.id, y, RpcMethod::kGatherPartial, payload.AsSlice()));
    }
    return Status::OK();
  }

  /// Apply + Scatter phase for one node (runs as a pool task).
  Status ApplyScatterNode(GasNode& node) {
    const JobConfig& config = engine_->config();
    const int superstep = engine_->superstep();
    // Apply + Scatter at this master. Broadcast staging per replica node.
    std::vector<Message> no_msgs;
    std::vector<Buffer> bodies(config.num_nodes);
    std::vector<uint64_t> counts(config.num_nodes, 0);
    std::vector<uint8_t> tmp(kValueRecord);

    for (VertexId v : node.owned) {
      auto pit = node.pending.find(v);
      const bool has_msgs = pit != node.pending.end();
      const bool run_update =
          P::kAlwaysActive
              ? (superstep > 0 || engine_->program().InitActive(v))
              : (has_msgs ||
                 (superstep == 0 && engine_->program().InitActive(v)));
      const uint32_t idx = node.replica_idx[v];
      if (!run_update) {
        // BSP semantics: a vertex that does not update this superstep does
        // not respond this superstep. Clear a stale flag on every replica.
        if (superstep > 0 && node.replica_responding[idx]) {
          node.replica_responding[idx] = 0;
          Value value{};
          HG_RETURN_IF_ERROR(CachedRead(node, idx, &value));
          std::vector<uint8_t> vtmp(kValueRecord);
          PodCodec<Value>::Encode(value, vtmp.data());
          for (NodeId rn : node.replica_nodes[v]) {
            if (rn == node.id) continue;
            Encoder enc(&bodies[rn]);
            enc.PutFixed32(v);
            enc.PutU8(0);
            enc.PutRaw(vtmp.data(), vtmp.size());
            ++counts[rn];
          }
        }
        continue;
      }
      Value value{};
      HG_RETURN_IF_ERROR(CachedRead(node, idx, &value));
      const auto& msgs = has_msgs ? pit->second : no_msgs;
      const UpdateResult res =
          engine_->program().Update(v, &value, msgs, engine_->ctx());
      ++node.updated;
      node.cpu_seconds += config.cpu.per_vertex_update_s +
                          config.cpu.per_message_s * msgs.size();
      if (res.changed) {
        HG_RETURN_IF_ERROR(CachedWrite(node, idx, value));
      }
      if (res.respond) {
        ++node.responded;
      }
      const uint8_t responding = res.respond ? 1 : 0;
      const bool flag_changed = node.replica_responding[idx] != responding;
      node.replica_responding[idx] = responding;
      // Mirror synchronization: value/flag changes go to every replica node.
      if (res.changed || flag_changed) {
        PodCodec<Value>::Encode(value, tmp.data());
        for (NodeId rn : node.replica_nodes[v]) {
          if (rn == node.id) continue;
          Encoder enc(&bodies[rn]);
          enc.PutFixed32(v);
          enc.PutU8(responding);
          enc.PutRaw(tmp.data(), tmp.size());
          ++counts[rn];
        }
      }
    }
    node.pending.clear();

    for (uint32_t y = 0; y < config.num_nodes; ++y) {
      if (counts[y] == 0) continue;
      Buffer framed;
      Encoder enc(&framed);
      enc.PutVarint64(counts[y]);
      enc.PutRaw(bodies[y].data(), bodies[y].size());
      HG_RETURN_IF_ERROR(engine_->transport().Post(
          node.id, y, RpcMethod::kApplyBroadcast, framed.AsSlice()));
    }
    return Status::OK();
  }

  /// Applies staged handler payloads in sender order (post-barrier).
  Status DrainGatherStaged(GasNode& node) {
    for (uint32_t src = 0; src < engine_->config().num_nodes; ++src) {
      for (const auto& payload : node.gather_staged[src]) {
        HG_RETURN_IF_ERROR(
            HandleGatherPartial(node, Slice(payload.data(), payload.size())));
      }
      node.gather_staged[src].clear();
    }
    return Status::OK();
  }

  Status DrainApplyStaged(GasNode& node) {
    for (uint32_t src = 0; src < engine_->config().num_nodes; ++src) {
      for (const auto& payload : node.apply_staged[src]) {
        HG_RETURN_IF_ERROR(
            HandleApplyBroadcast(node, Slice(payload.data(), payload.size())));
      }
      node.apply_staged[src].clear();
    }
    return Status::OK();
  }

  Engine<P>* engine_;
  std::vector<GasNode> nodes_;
  std::vector<uint32_t> out_degrees_;
};

}  // namespace hybridgraph
