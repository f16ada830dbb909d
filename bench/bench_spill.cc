// Spill-path micro-benchmark: seeded run building plus the streaming k-way
// merge at several per-run buffer sizes, against the materializing wrapper
// as a baseline. Emits a machine-readable BENCH_spill.json record (path
// overridable via argv[1]) so CI can track merge throughput and the
// bounded-memory guarantee (peak resident entries) over time.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "io/message_spill.h"
#include "io/storage.h"
#include "util/record_slab.h"
#include "util/rng.h"

using namespace hybridgraph;

namespace {

constexpr size_t kPayload = 8;  // PageRank-sized message
constexpr size_t kRuns = 16;
constexpr size_t kEntriesPerRun = 50000;
constexpr uint64_t kSeed = 20160626;  // SIGMOD'16

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

RecordSlab MakeRun(Rng* rng) {
  RecordSlab run(kPayload);
  for (size_t i = 0; i < kEntriesPerRun; ++i) {
    const auto dst = static_cast<uint32_t>(rng->NextBounded(100000));
    uint8_t* payload = run.Append(dst);
    for (size_t b = 0; b < kPayload; ++b) {
      payload[b] = static_cast<uint8_t>(rng->NextBounded(256));
    }
  }
  return run;
}

struct MergeSample {
  uint64_t buffer_bytes_per_run;
  double msgs_per_s;
  uint64_t buffer_bytes_total;
  uint64_t peak_resident_entries;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_spill.json";
  const uint64_t total = kRuns * kEntriesPerRun;
  std::printf("bench_spill: %zu runs x %zu entries (%zu-byte payloads)\n",
              kRuns, kEntriesPerRun, kPayload);

  MemStorage storage;
  MessageSpill spill(&storage, "bench/spill", kPayload);
  Rng rng(kSeed);
  const auto spill_t0 = std::chrono::steady_clock::now();
  for (size_t r = 0; r < kRuns; ++r) {
    Status st = spill.SpillRun(MakeRun(&rng).bytes());
    if (!st.ok()) {
      std::fprintf(stderr, "spill failed: %s\n", st.message().c_str());
      return 1;
    }
  }
  const double spill_s = SecondsSince(spill_t0);
  const double spill_rate = static_cast<double>(total) / spill_s;
  std::printf("  spill: %.0f msgs/s (%.3fs, %llu bytes written)\n", spill_rate,
              spill_s, static_cast<unsigned long long>(spill.bytes_written()));

  std::vector<MergeSample> samples;
  for (uint64_t buf : {uint64_t{4 + kPayload}, uint64_t{4096},
                       MessageSpill::kDefaultMergeBufferBytes}) {
    const auto t0 = std::chrono::steady_clock::now();
    auto res = spill.NewMergeIterator(buf);
    if (!res.ok()) {
      std::fprintf(stderr, "merge open failed: %s\n",
                   res.status().message().c_str());
      return 1;
    }
    auto it = std::move(res).value();
    uint64_t emitted = 0;
    while (it->Valid()) {
      ++emitted;
      Status st = it->Next();
      if (!st.ok()) {
        std::fprintf(stderr, "merge failed: %s\n", st.message().c_str());
        return 1;
      }
    }
    const double merge_s = SecondsSince(t0);
    if (emitted != total) {
      std::fprintf(stderr, "merge emitted %llu of %llu entries\n",
                   static_cast<unsigned long long>(emitted),
                   static_cast<unsigned long long>(total));
      return 1;
    }
    MergeSample s;
    s.buffer_bytes_per_run = buf;
    s.msgs_per_s = static_cast<double>(emitted) / merge_s;
    s.buffer_bytes_total = it->buffer_bytes();
    s.peak_resident_entries = it->peak_resident_entries();
    samples.push_back(s);
    std::printf(
        "  streaming merge (buf %7llu B/run): %.0f msgs/s, "
        "%llu buffer bytes, peak %llu resident of %llu entries\n",
        static_cast<unsigned long long>(buf), s.msgs_per_s,
        static_cast<unsigned long long>(s.buffer_bytes_total),
        static_cast<unsigned long long>(s.peak_resident_entries),
        static_cast<unsigned long long>(total));
  }

  const auto mat_t0 = std::chrono::steady_clock::now();
  RecordSlab all(kPayload);
  Status st = spill.MergeReadAll(&all);
  if (!st.ok() || all.count() != total) {
    std::fprintf(stderr, "materializing merge failed\n");
    return 1;
  }
  const double mat_s = SecondsSince(mat_t0);
  const double mat_rate = static_cast<double>(total) / mat_s;
  std::printf("  materializing merge baseline: %.0f msgs/s\n", mat_rate);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"spill\",\n"
               "  \"seed\": %llu,\n"
               "  \"runs\": %zu,\n"
               "  \"entries_per_run\": %zu,\n"
               "  \"payload_bytes\": %zu,\n"
               "  \"spill_msgs_per_s\": %.0f,\n"
               "  \"materializing_msgs_per_s\": %.0f,\n"
               "  \"streaming\": [\n",
               static_cast<unsigned long long>(kSeed), kRuns, kEntriesPerRun,
               kPayload, spill_rate, mat_rate);
  for (size_t i = 0; i < samples.size(); ++i) {
    const MergeSample& s = samples[i];
    std::fprintf(f,
                 "    {\"buffer_bytes_per_run\": %llu, \"msgs_per_s\": %.0f, "
                 "\"buffer_bytes_total\": %llu, "
                 "\"peak_resident_entries\": %llu}%s\n",
                 static_cast<unsigned long long>(s.buffer_bytes_per_run),
                 s.msgs_per_s,
                 static_cast<unsigned long long>(s.buffer_bytes_total),
                 static_cast<unsigned long long>(s.peak_resident_entries),
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
