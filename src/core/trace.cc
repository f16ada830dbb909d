#include "core/trace.h"

#include <chrono>
#include <cstdio>

#include "util/string_util.h"

namespace hybridgraph {

namespace {
int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StringFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}
}  // namespace

void TraceCollector::Enable() {
  enabled_ = true;
  origin_ns_ = MonotonicNs();
}

uint64_t TraceCollector::NowUs() const {
  if (!enabled_) return 0;
  return static_cast<uint64_t>((MonotonicNs() - origin_ns_) / 1000);
}

void TraceCollector::AddSpan(const char* name, int superstep, int node,
                             uint64_t start_us, uint64_t end_us,
                             EngineMode mode) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(Event{name, superstep, node, start_us,
                          end_us >= start_us ? end_us - start_us : 0, mode,
                          false, {}});
}

void TraceCollector::AddSteadySpan(const char* name, int superstep, int node,
                                   uint64_t steady_start_us,
                                   uint64_t steady_end_us, EngineMode mode) {
  if (!enabled_) return;
  const uint64_t origin_us = static_cast<uint64_t>(origin_ns_ / 1000);
  const uint64_t s = steady_start_us > origin_us ? steady_start_us - origin_us : 0;
  const uint64_t e = steady_end_us > origin_us ? steady_end_us - origin_us : 0;
  AddSpan(name, superstep, node, s, e, mode);
}

void TraceCollector::AddInstant(const char* name, int superstep, int node,
                                EngineMode mode, const std::string& detail) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({name, superstep, node, NowUs(), 0, mode, true, detail});
}

size_t TraceCollector::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

Status TraceCollector::WriteJson(const std::string& path) const {
  std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool first = true;
    for (const auto& e : events_) {
      if (!first) json += ',';
      first = false;
      // pid 0 = the driver (cluster-wide phase spans); pid i+1 = node i.
      if (e.instant) {
        json += StringFormat(
            "{\"name\":\"%s\",\"cat\":\"superstep\",\"ph\":\"i\",\"s\":\"p\","
            "\"ts\":%llu,\"pid\":%d,\"tid\":0,"
            "\"args\":{\"superstep\":%d,\"mode\":\"%s\",\"detail\":\"%s\"}}",
            e.name, static_cast<unsigned long long>(e.start_us),
            e.node < 0 ? 0 : e.node + 1, e.superstep, EngineModeName(e.mode),
            JsonEscape(e.detail).c_str());
        continue;
      }
      json += StringFormat(
          "{\"name\":\"%s\",\"cat\":\"superstep\",\"ph\":\"X\","
          "\"ts\":%llu,\"dur\":%llu,\"pid\":%d,\"tid\":0,"
          "\"args\":{\"superstep\":%d,\"mode\":\"%s\"}}",
          e.name, static_cast<unsigned long long>(e.start_us),
          static_cast<unsigned long long>(e.dur_us),
          e.node < 0 ? 0 : e.node + 1, e.superstep, EngineModeName(e.mode));
    }
  }
  json += "]}";

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return Status::IoError("cannot open trace file: " + path);
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::IoError("short write to trace file: " + path);
  }
  return Status::OK();
}

}  // namespace hybridgraph
