#include "workloads.h"

#include <algorithm>
#include <cstring>

#include "stats.h"

namespace perfbench {

using hybridgraph::DatasetSpec;
using hybridgraph::EdgeBatch;
using hybridgraph::EdgeListGraph;
using hybridgraph::Result;
using hybridgraph::Status;

void RunResult::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
}

Status RunWorkload(const RunOptions& options, RunResult* result) {
  if (options.workload == "pr-bpull" || options.workload == "pr-push-spill") {
    return RunBatchWorkload(options, result);
  }
  if (options.workload == "sssp-serve") return RunServeWorkload(options, result);
  return Status::InvalidArgument("unknown workload: " + options.workload);
}

Result<DatasetSpec> SeededDataset(const std::string& name, uint64_t seed) {
  HG_ASSIGN_OR_RETURN(DatasetSpec spec, hybridgraph::FindDataset(name));
  spec.seed = seed;
  return spec;
}

std::vector<EdgeBatch> ServeStream(const EdgeListGraph& base, uint64_t seed,
                                   uint32_t session, uint32_t batches) {
  hybridgraph::EdgeStreamOptions so;
  so.num_batches = batches;
  so.batch_size = 64;
  so.delete_fraction = 0.0;  // a delete forces a cold recompute
  // Decorrelated from the graph generator, which also draws from `seed`.
  so.seed = (seed * 0x9E3779B97F4A7C15ull + 0x5157) ^ (session * 0xBF58476D1CE4E5B9ull);
  return hybridgraph::GenerateEdgeStream(base, so);
}

uint64_t GraphFingerprint(const EdgeListGraph& g) {
  uint64_t h = Fnv1a(&g.num_vertices, sizeof(g.num_vertices));
  for (const auto& e : g.edges) {
    h = Fnv1a(&e.src, sizeof(e.src), h);
    h = Fnv1a(&e.dst, sizeof(e.dst), h);
    h = Fnv1a(&e.weight, sizeof(e.weight), h);
  }
  return h;
}

uint64_t StreamFingerprint(const std::vector<EdgeBatch>& stream) {
  uint64_t h = Fnv1a("stream", 6);
  for (const EdgeBatch& b : stream) {
    h = Fnv1a(&b.timestamp, sizeof(b.timestamp), h);
    for (const auto& d : b.deltas) {
      h = Fnv1a(&d.src, sizeof(d.src), h);
      h = Fnv1a(&d.dst, sizeof(d.dst), h);
      h = Fnv1a(&d.weight, sizeof(d.weight), h);
      h = Fnv1a(&d.is_delete, sizeof(d.is_delete), h);
    }
  }
  return h;
}

void FoldSuperstepCounters(const std::vector<hybridgraph::SuperstepMetrics>& steps,
                           size_t first, MetricSet* m) {
  uint64_t vrr = 0, eblock = 0, adj = 0, spill_w = 0, spill_r = 0, spilled = 0,
           resident = 0, frames = 0, pulls = 0, wire = 0, combined = 0, edges = 0,
           msgs = 0;
  for (size_t k = first; k < steps.size(); ++k) {
    const hybridgraph::SuperstepMetrics& s = steps[k];
    vrr += s.io.vrr_bytes;
    eblock += s.io.eblock_edge_bytes;
    adj += s.io.adj_edge_bytes;
    spill_w += s.io.msg_spill_write;
    spill_r += s.io.msg_spill_read;
    spilled += s.messages_spilled;
    resident = std::max(resident, s.spill_peak_resident);
    frames += s.net_frames;
    pulls += s.pull_requests;
    wire += s.messages_on_wire;
    combined += s.messages_combined;
    edges += s.edges_scanned;
    msgs += s.messages_produced;
  }
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  m->Set("io.vrr_bytes", d(vrr), 1);
  m->Set("io.eblock_bytes", d(eblock), 1);
  m->Set("io.adj_bytes", d(adj), 1);
  m->Set("io.spill_write_bytes", d(spill_w), 1);
  m->Set("io.spill_read_bytes", d(spill_r), 1);
  m->Set("io.messages_spilled", d(spilled), 1);
  m->Set("io.spill_resident_peak", d(resident), 1);
  m->Set("net.frames", d(frames), 1);
  m->Set("net.pull_requests", d(pulls), 1);
  m->Set("net.messages_on_wire", d(wire), 1);
  m->Set("net.messages_combined", d(combined), 1);
  m->Set("core.edges_scanned", d(edges), 1);
  m->Set("core.messages", d(msgs), 1);
}

void DeterminismGuard::Check(const std::map<std::string, double>& rep,
                             uint64_t fingerprint, RunResult* result) {
  if (!have_) {
    have_ = true;
    baseline_ = rep;
    fingerprint_ = fingerprint;
    return;
  }
  if (fingerprint != fingerprint_) {
    result->Fail("determinism: generated inputs differ between repetitions");
  }
  for (const auto& [name, value] : rep) {
    const auto it = baseline_.find(name);
    if (it == baseline_.end() || std::memcmp(&it->second, &value, sizeof(double)) != 0) {
      result->Fail("determinism: " + name + " drifted from " +
                   FullDigits(it == baseline_.end() ? 0.0 : it->second) + " to " +
                   FullDigits(value));
    }
  }
}

Status FinishTrace(const RunOptions& options, const SpanTrace& trace,
                   RunResult* result) {
  if (!options.trace) return Status::OK();
  result->spans = trace.Totals();
  result->trace_file = options.out_dir + "/trace-" + options.workload + "-" +
                       std::to_string(options.seed) + ".json";
  return trace.WriteJson(result->trace_file);
}

}  // namespace perfbench
