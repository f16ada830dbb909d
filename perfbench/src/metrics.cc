#include "metrics.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& Catalog() {
  static const std::vector<MetricDef> kCatalog = {
      // End to end: what a user of the engine or the server sees.
      {"setup_s", "s", Kind::kEndToEnd, Scope::kAll, false},
      {"job_s", "s", Kind::kEndToEnd, Scope::kAll, false},
      {"cpu_s", "s", Kind::kEndToEnd, Scope::kAll, false},
      {"peak_rss_mb", "MB", Kind::kEndToEnd, Scope::kAll, false},
      {"modeled_s", "s", Kind::kEndToEnd, Scope::kAll, true},
      {"io_bytes", "bytes", Kind::kEndToEnd, Scope::kAll, true},
      {"net_bytes", "bytes", Kind::kEndToEnd, Scope::kAll, true},
      {"ok_frac", "ratio", Kind::kEndToEnd, Scope::kAll, false},
      {"epoch_p50_ms", "ms", Kind::kEndToEnd, Scope::kServe, false},
      {"epoch_p90_ms", "ms", Kind::kEndToEnd, Scope::kServe, false},
      {"get_p50_us", "us", Kind::kEndToEnd, Scope::kServe, false},
      {"get_p99_us", "us", Kind::kEndToEnd, Scope::kServe, false},
      {"topk_p50_us", "us", Kind::kEndToEnd, Scope::kServe, false},
      {"topk_p99_us", "us", Kind::kEndToEnd, Scope::kServe, false},
      // graph: generator, partition, VE-BLOCK store, streaming overlay.
      {"graph.gen_s", "s", Kind::kLayer, Scope::kAll, false},
      {"graph.load_s", "s", Kind::kLayer, Scope::kAll, false},
      {"graph.load_write_bytes", "bytes", Kind::kLayer, Scope::kAll, true},
      {"graph.fragments", "count", Kind::kLayer, Scope::kAll, true},
      {"graph.ingest_ms_p50", "ms", Kind::kLayer, Scope::kServe, false},
      {"graph.ingest_ms_p90", "ms", Kind::kLayer, Scope::kServe, false},
      {"graph.delta_runs_max", "count", Kind::kLayer, Scope::kServe, true},
      // io: storage, disk model, message spill, prefetch.
      {"io.vrr_bytes", "bytes", Kind::kLayer, Scope::kAll, true},
      {"io.eblock_bytes", "bytes", Kind::kLayer, Scope::kAll, true},
      {"io.adj_bytes", "bytes", Kind::kLayer, Scope::kAll, true},
      {"io.spill_write_bytes", "bytes", Kind::kLayer, Scope::kAll, true},
      {"io.spill_read_bytes", "bytes", Kind::kLayer, Scope::kAll, true},
      {"io.messages_spilled", "count", Kind::kLayer, Scope::kAll, true},
      {"io.spill_resident_peak", "count", Kind::kLayer, Scope::kAll, true},
      {"io.epoch_read_bytes", "bytes", Kind::kLayer, Scope::kServe, true},
      {"io.epoch_write_bytes", "bytes", Kind::kLayer, Scope::kServe, true},
      // net: transport, TCP, message codec.
      {"net.frames", "count", Kind::kLayer, Scope::kAll, true},
      {"net.pull_requests", "count", Kind::kLayer, Scope::kAll, true},
      {"net.messages_on_wire", "count", Kind::kLayer, Scope::kAll, true},
      {"net.messages_combined", "count", Kind::kLayer, Scope::kAll, true},
      // core: superstep driver, message paths, hybrid switch, epoch driver.
      {"core.superstep_ms_p50", "ms", Kind::kLayer, Scope::kAll, false},
      {"core.consume_s", "s", Kind::kLayer, Scope::kAll, false},
      {"core.update_s", "s", Kind::kLayer, Scope::kAll, false},
      {"core.drain_s", "s", Kind::kLayer, Scope::kAll, false},
      {"core.edges_scanned", "count", Kind::kLayer, Scope::kAll, true},
      {"core.messages", "count", Kind::kLayer, Scope::kAll, true},
      {"core.cpu_util", "ratio", Kind::kLayer, Scope::kAll, false},
      {"core.converge_ms_p50", "ms", Kind::kLayer, Scope::kServe, false},
      {"core.converge_ms_p90", "ms", Kind::kLayer, Scope::kServe, false},
      {"core.epoch_supersteps_p50", "count", Kind::kLayer, Scope::kServe, true},
      // serve: server, protocol, snapshots.
      {"serve.publish_ms_p50", "ms", Kind::kLayer, Scope::kServe, false},
      {"serve.stats_us_p50", "us", Kind::kLayer, Scope::kServe, false},
      {"serve.queries", "count", Kind::kLayer, Scope::kServe, false},
      {"serve.query_errors", "count", Kind::kLayer, Scope::kServe, false},
      // The traced run's own cost.
      {"trace.overhead_frac", "ratio", Kind::kLayer, Scope::kAll, false},
  };
  return kCatalog;
}

const MetricDef* FindMetric(const std::string& name) {
  for (const MetricDef& d : Catalog()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

std::string CatalogJson() {
  std::string out = "[";
  for (const MetricDef& d : Catalog()) {
    if (out.size() > 1) out += ",\n ";
    out += std::string("{\"name\": \"") + d.name + "\", \"unit\": \"" + d.unit +
           "\", \"kind\": \"" + (d.kind == Kind::kEndToEnd ? "end_to_end" : "per_layer") +
           "\", \"scope\": \"" + (d.scope == Scope::kAll ? "all" : "sssp-serve") +
           "\", \"deterministic\": " + (d.deterministic ? "true" : "false") + "}";
  }
  return out + "]";
}

void MetricSet::Set(const std::string& name, double value, size_t samples) {
  if (FindMetric(name) == nullptr) {
    throw std::logic_error("metric not in the catalog: " + name);
  }
  values_[name] = Entry{value, samples};
}

std::map<std::string, double> MetricSet::Deterministic() const {
  std::map<std::string, double> out;
  for (const auto& [name, e] : values_) {
    if (FindMetric(name)->deterministic) out[name] = e.value;
  }
  return out;
}

std::string FullDigits(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
