#include "stats.h"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace perfbench {

namespace {
// Rank (1-based) of the nearest-rank percentile q over n samples.
size_t NearestRank(double q, size_t n) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}
}  // namespace

hybridgraph::Result<double> Percentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q < 1.0)) {
    return hybridgraph::Status::InvalidArgument("percentile must be in (0, 1)");
  }
  const size_t n = samples.size();
  const size_t rank = n == 0 ? 0 : NearestRank(q, n);
  if (n == 0 || n - rank < kMinSamplesBeyond) {
    return hybridgraph::Status::InvalidArgument(
        "p" + std::to_string(static_cast<int>(std::lround(q * 100))) +
        " needs at least " + std::to_string(kMinSamplesBeyond) +
        " samples beyond it; have " + std::to_string(n) + " samples");
  }
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double TrimmedMean(std::vector<double> samples, double trim) {
  std::sort(samples.begin(), samples.end());
  const size_t k = static_cast<size_t>(trim * static_cast<double>(samples.size()));
  double sum = 0;
  for (size_t i = k; i + k < samples.size(); ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * k);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double ProbeSeconds() {
  constexpr size_t kTable = size_t{1} << 23;  // doubles: 64 MiB
  constexpr size_t kReads = size_t{1} << 22;
  constexpr int kRounds = 3;
  // Mapped and unmapped here, not taken from the heap, so that none of it
  // stays resident in the peak RSS of the job or session that follows.
  const size_t bytes = kTable * sizeof(double) + kReads * sizeof(uint32_t);
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) std::abort();
  double* table = static_cast<double*>(mem);
  uint32_t* index = reinterpret_cast<uint32_t*>(table + kTable);
  for (size_t i = 0; i < kTable; ++i) table[i] = static_cast<double>(i & 1023);
  uint64_t x = 0x9E3779B97F4A7C15ull;  // xorshift64: the same reads every call
  for (size_t i = 0; i < kReads; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    index[i] = static_cast<uint32_t>(x & (kTable - 1));
  }
  std::vector<double> rounds;
  double sum = 0;
  for (int r = 0; r < kRounds; ++r) {
    const double t0 = NowSeconds();
    for (size_t i = 0; i < kReads; ++i) sum += table[index[i]];
    rounds.push_back(NowSeconds() - t0);
  }
  munmap(mem, bytes);
  // The sum is fixed; using it keeps the reads from being optimized away.
  if (sum < 0) std::abort();
  return Median(rounds);
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
