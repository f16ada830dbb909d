#include "span_trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {

using hybridgraph::Status;

namespace {

struct LibEvent {
  std::string name;
  int pid = 0;
  int64_t ts_us = 0;
  int64_t dur_us = 0;
};

// Reads the numeric field `"key":<n>` from `ev`; false when absent.
bool NumberField(const std::string& ev, const char* key, int64_t* out) {
  const std::string pat = std::string("\"") + key + "\":";
  const size_t p = ev.find(pat);
  if (p == std::string::npos) return false;
  *out = std::strtoll(ev.c_str() + p + pat.size(), nullptr, 10);
  return true;
}

// Extracts the complete (ph:"X") events of a TraceCollector::WriteJson file.
Status ParseLibraryEvents(const std::string& text, std::vector<LibEvent>* out) {
  static const std::string kStart = "{\"name\":\"";
  if (text.find("\"traceEvents\"") == std::string::npos) {
    return Status::Corruption("library trace has no traceEvents array");
  }
  size_t p = text.find(kStart);
  while (p != std::string::npos) {
    const size_t next = text.find(kStart, p + kStart.size());
    const std::string ev = text.substr(p, next == std::string::npos ? std::string::npos
                                                                     : next - p);
    p = next;
    if (ev.find("\"ph\":\"X\"") == std::string::npos) continue;
    LibEvent e;
    const size_t name_end = ev.find('"', kStart.size());
    e.name = ev.substr(kStart.size(), name_end - kStart.size());
    int64_t pid = 0;
    if (!NumberField(ev, "ts", &e.ts_us) || !NumberField(ev, "dur", &e.dur_us) ||
        !NumberField(ev, "pid", &pid)) {
      return Status::Corruption("library trace event without ts/dur/pid: " + ev);
    }
    e.pid = static_cast<int>(pid);
    out->push_back(std::move(e));
  }
  return Status::OK();
}

// The span in `cands` (ids into `spans`) that overlaps [start, end) the
// most, preferring the shorter span on ties; -1 if none overlaps. The
// library stamps whole microseconds, so an event may poke a hair outside
// the span that caused it; overlap tolerates that where containment would
// not. Candidates are few per call, so a scan is fine.
int64_t BestParent(const std::vector<Span>& spans, const std::vector<uint64_t>& cands,
                   int64_t start, int64_t end) {
  int64_t best = -1;
  int64_t best_overlap = -1;
  int64_t best_len = 0;
  for (uint64_t id : cands) {
    const Span& s = spans[id - 1];
    const int64_t overlap = std::min(end, s.end_ns) - std::max(start, s.start_ns);
    const int64_t len = s.end_ns - s.start_ns;
    if (overlap < 0 && !(start == end && s.start_ns <= start && start <= s.end_ns)) {
      continue;
    }
    if (overlap > best_overlap || (overlap == best_overlap && len < best_len)) {
      best = static_cast<int64_t>(id);
      best_overlap = overlap;
      best_len = len;
    }
  }
  return best;
}

}  // namespace

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SpanTrace::Add(const std::string& name, uint64_t parent, int64_t start_ns,
                        int64_t end_ns, const std::string& track) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = name;
  s.track = track;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

uint64_t SpanTrace::Open(const std::string& name, uint64_t parent,
                         const std::string& track) {
  const int64_t now = SteadyNowNs();
  return Add(name, parent, now, now, track);
}

void SpanTrace::Close(uint64_t id) {
  if (!enabled_ || id == 0) return;
  const int64_t now = SteadyNowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

Status SpanTrace::ImportLibraryTrace(const std::string& path,
                                     const std::vector<uint64_t>& parents) {
  if (!enabled_ || parents.empty()) return Status::OK();
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot read library trace " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::vector<LibEvent> events;
  HG_RETURN_IF_ERROR(ParseLibraryEvents(buf.str(), &events));
  if (events.empty()) return Status::OK();

  std::lock_guard<std::mutex> lock(mu_);
  int64_t first_us = events.front().ts_us;
  for (const LibEvent& e : events) first_us = std::min(first_us, e.ts_us);
  const int64_t origin_ns = spans_[parents.front() - 1].start_ns - first_us * 1000;

  // Cluster-wide phases first, so per-node events can nest under them.
  std::stable_sort(events.begin(), events.end(), [](const LibEvent& a, const LibEvent& b) {
    return (a.pid == 0) > (b.pid == 0);
  });
  std::vector<uint64_t> phases;
  for (const LibEvent& e : events) {
    const int64_t start = origin_ns + e.ts_us * 1000;
    const int64_t end = start + e.dur_us * 1000;
    int64_t parent = -1;
    if (e.pid != 0) parent = BestParent(spans_, phases, start, end);
    if (parent < 0) parent = BestParent(spans_, parents, start, end);
    if (parent < 0) {
      // Outside every candidate (a zero-length event in a gap between
      // them): attach to the candidate that starts last before it.
      parent = static_cast<int64_t>(parents.front());
      for (uint64_t id : parents) {
        if (spans_[id - 1].start_ns <= start) parent = static_cast<int64_t>(id);
      }
    }
    Span s;
    s.id = spans_.size() + 1;
    s.parent = static_cast<uint64_t>(parent);
    s.name = e.name;
    s.track = e.pid == 0 ? "library" : "library.node" + std::to_string(e.pid - 1);
    s.start_ns = start;
    s.end_ns = end;
    spans_.push_back(std::move(s));
    if (e.pid == 0) phases.push_back(spans_.back().id);
  }
  return Status::OK();
}

std::vector<SpanTotals> SpanTrace::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<uint64_t>> children(spans_.size() + 1);
  for (const Span& s : spans_) children[s.parent].push_back(s.id);

  std::map<std::string, SpanTotals> by_name;
  for (const Span& s : spans_) {
    // Union of the child intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (uint64_t c : children[s.id]) {
      const Span& k = spans_[c - 1];
      const int64_t a = std::max(k.start_ns, s.start_ns);
      const int64_t b = std::min(k.end_ns, s.end_ns);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    SpanTotals& t = by_name[s.name];
    t.name = s.name;
    t.count += 1;
    t.total_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    t.self_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  std::vector<SpanTotals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

Status SpanTrace::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::map<std::string, int> tids;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot write trace " + path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto it = tids.emplace(s.track, static_cast<int>(tids.size())).first;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":%d,\"args\":{\"id\":%llu,\"parent\":%llu,"
                 "\"track\":\"%s\"}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), 1e-3 * static_cast<double>(s.start_ns - origin),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns), it->second,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.track.c_str());
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) return Status::IoError("cannot finish trace " + path);
  return Status::OK();
}

}  // namespace perfbench
