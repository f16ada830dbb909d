// hg_perfbench — runs one benchmark workload and prints its metrics.
//
//   hg_perfbench --workload pr-bpull|pr-push-spill|sssp-serve --seed N
//                --seconds S --trace 0|1 [--out-dir DIR]
//   hg_perfbench --list-metrics
//
// Lines starting with '#' are the human-readable report: every metric that
// applies to the workload with its unit and sample count, the span totals of
// a traced run, the determinism fingerprint, and a JSON copy of the report.
// The last line is the result object: {"correct", "attempted", "failed",
// "metrics"}, where metrics holds the catalog's all-workload end-to-end
// metrics (--trace 0) or per-layer metrics (--trace 1). The exit code is
// nonzero when any output was wrong or any count drifted between
// repetitions.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "metrics.h"
#include "stats.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: hg_perfbench --workload pr-bpull|pr-push-spill|sssp-serve "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n"
               "       hg_perfbench --list-metrics\n");
  return 2;
}

std::string JsonMetric(const std::string& name, const MetricSet::Entry& e,
                       bool with_samples) {
  std::string out = "\"" + name + "\": {\"value\": " + FullDigits(e.value) +
                    ", \"unit\": \"" + FindMetric(name)->unit + "\"";
  if (with_samples) out += ", \"samples\": " + std::to_string(e.samples);
  return out + "}";
}

uint64_t Fingerprint(const RunResult& r) {
  uint64_t h = Fnv1a(&r.input_fingerprint, sizeof(r.input_fingerprint));
  for (const auto& [name, value] : r.deterministic) {
    h = Fnv1a(name.data(), name.size(), h);
    h = Fnv1a(&value, sizeof(value), h);
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      std::printf("%s\n", CatalogJson().c_str());
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const char* val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (arg == "--out-dir") {
      opt.out_dir = val;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !(opt.seconds > 0)) return Usage();

  RunResult r;
  const hybridgraph::Status st = RunWorkload(opt, &r);
  if (!st.ok()) {
    std::fprintf(stderr, "hg_perfbench: %s\n", st.ToString().c_str());
    return 2;
  }
  const double ok_frac = r.attempted == 0
                             ? 0.0
                             : static_cast<double>(r.attempted - r.failed) /
                                   static_cast<double>(r.attempted);
  r.metrics.Set("ok_frac", ok_frac, r.attempted);
  const bool correct = r.attempted > 0 && r.failed == 0;

  std::printf("# hg_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const std::string& e : r.errors) std::printf("# FAILED %s\n", e.c_str());
  std::string report = "{\"workload\": \"" + opt.workload + "\", \"seed\": " +
                       std::to_string(opt.seed) + ", \"trace\": " +
                       (opt.trace ? "1" : "0") + ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : Catalog()) {
    if (!r.metrics.Has(d.name)) continue;
    const MetricSet::Entry& e = r.metrics.values().at(d.name);
    std::printf("# %-10s %-26s %22s %-5s n=%zu%s\n",
                d.kind == Kind::kEndToEnd ? "end_to_end" : "per_layer", d.name,
                FullDigits(e.value).c_str(), d.unit, e.samples,
                d.deterministic ? " (deterministic)" : "");
    report += (first ? "" : ", ") + JsonMetric(d.name, e, true);
    first = false;
  }
  report += "}, \"reps\": {";
  first = true;
  for (const auto& [name, values] : r.reps) {
    std::string list;
    for (double v : values) list += (list.empty() ? "" : ", ") + FullDigits(v);
    std::printf("# reps %-8s [%s]\n", name.c_str(), list.c_str());
    report += (first ? "\"" : ", \"") + name + "\": [" + list + "]";
    first = false;
  }
  report += "}, \"spans\": [";
  for (size_t i = 0; i < r.spans.size(); ++i) {
    const SpanTotals& t = r.spans[i];
    std::printf("# span %-22s count=%-8llu total_s=%-12.6f self_s=%.6f\n",
                t.name.c_str(), static_cast<unsigned long long>(t.count), t.total_s,
                t.self_s);
    report += (i ? ", " : "") + std::string("{\"name\": \"") + t.name +
              "\", \"count\": " + std::to_string(t.count) +
              ", \"total_s\": " + FullDigits(t.total_s) +
              ", \"self_s\": " + FullDigits(t.self_s) + "}";
  }
  report += "], \"trace_file\": \"" + r.trace_file + "\"}";
  if (!r.trace_file.empty()) std::printf("# trace written to %s\n", r.trace_file.c_str());
  std::printf("# fingerprint %016llx\n", static_cast<unsigned long long>(Fingerprint(r)));
  std::printf("# report %s\n", report.c_str());

  const Kind want = opt.trace ? Kind::kLayer : Kind::kEndToEnd;
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  first = true;
  for (const MetricDef& d : Catalog()) {
    if (d.kind != want || d.scope != Scope::kAll) continue;
    if (!r.metrics.Has(d.name)) {
      std::fprintf(stderr, "hg_perfbench: metric %s was not measured\n", d.name);
      return 2;
    }
    out += (first ? "" : ", ") + JsonMetric(d.name, r.metrics.values().at(d.name), false);
    first = false;
  }
  std::printf("%s}}\n", out.c_str());
  return correct ? 0 : 1;
}
