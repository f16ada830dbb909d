// In-memory span trace for the traced benchmark run.
//
// The benchmark records a span around each call it makes into a layer
// (graph generation, Load, RunSuperstep, SubmitBatch, the RPCs), with the
// id of the span that caused it. The library's own superstep spans, which
// JobConfig::trace_path writes as Chrome trace JSON, are imported after a
// job and hung under the benchmark span that encloses them. Nothing is
// written until WriteJson() at the end of the run.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::string track;    ///< thread or library node the span ran on
  int64_t start_ns = 0; ///< steady clock
  int64_t end_ns = 0;
};

/// Per-name totals: how many spans, their summed duration, and their summed
/// self time (duration minus the part covered by child spans).
struct SpanTotals {
  std::string name;
  uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

int64_t SteadyNowNs();

class SpanTrace {
 public:
  explicit SpanTrace(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled).
  uint64_t Add(const std::string& name, uint64_t parent, int64_t start_ns,
               int64_t end_ns, const std::string& track);
  /// Opens a span whose end is filled by Close(); returns its id.
  uint64_t Open(const std::string& name, uint64_t parent,
                const std::string& track);
  void Close(uint64_t id);

  /// Imports the library trace at `path` (Chrome trace JSON with ph:"X"
  /// events). The library stamps times from its own origin, so the first
  /// library event is aligned to the start of `parents.front()`; each
  /// cluster-wide (pid 0) event then hangs under the `parents` span it
  /// overlaps most, and each per-node event under the pid-0 event it
  /// overlaps most (else under a `parents` span). `parents` are span ids in
  /// start order.
  hybridgraph::Status ImportLibraryTrace(const std::string& path,
                                         const std::vector<uint64_t>& parents);

  std::vector<SpanTotals> Totals() const;
  hybridgraph::Status WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // spans_[id - 1]
};

/// RAII helper around Open/Close.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, const std::string& name, uint64_t parent,
             const std::string& track)
      : trace_(trace), id_(trace->Open(name, parent, track)) {}
  ~ScopedSpan() { trace_->Close(id_); }
  uint64_t id() const { return id_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace* trace_;
  uint64_t id_;
};

}  // namespace perfbench
