// The benchmark's metric catalog and its output.
//
// Every metric hg_perfbench can emit is declared once here, with its unit,
// whether it is end-to-end or per-layer, which workloads it applies to, and
// whether it must repeat exactly across runs of one seed. BENCHMARK.json
// lists the metrics that apply to every workload; the workload-specific ones
// (serve latencies, epoch breakdowns) are printed in the run's report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Kind { kEndToEnd, kLayer };
enum class Scope { kAll, kServe };

struct MetricDef {
  const char* name;
  const char* unit;
  Kind kind;
  Scope scope;
  /// Modeled or counted: must be bit-identical across runs of one seed.
  bool deterministic;
};

const std::vector<MetricDef>& Catalog();
const MetricDef* FindMetric(const std::string& name);

/// The catalog as JSON (name, unit, kind, scope, deterministic); the tests
/// check BENCHMARK.json against it.
std::string CatalogJson();

/// One run's measured values, each with the number of samples behind it.
class MetricSet {
 public:
  void Set(const std::string& name, double value, size_t samples);
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  /// The deterministic metrics of this set, by name.
  std::map<std::string, double> Deterministic() const;

  struct Entry {
    double value = 0;
    size_t samples = 0;
  };
  const std::map<std::string, Entry>& values() const { return values_; }

 private:
  std::map<std::string, Entry> values_;
};

/// Formats a double with all its digits (round-trip precision).
std::string FullDigits(double v);

}  // namespace perfbench
