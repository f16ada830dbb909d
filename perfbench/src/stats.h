// Sample statistics and process meters for hg_perfbench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// A percentile is only reported when at least this many samples lie beyond
/// it; with fewer, one outlier moves it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `q` in (0, 1) of `samples`. Fails with
/// InvalidArgument unless at least kMinSamplesBeyond samples rank above it
/// (p50 needs 20 samples, p90 100, p99 1000).
hybridgraph::Result<double> Percentile(std::vector<double> samples, double q);

/// Median of a set of repetitions (set-up times, job times): the central value
/// of R whole runs, not a latency percentile, so it has no tail-sample rule.
/// The caller reports R beside it. Requires a non-empty input.
double Median(std::vector<double> samples);

/// Mean of the samples left after dropping the lowest and the highest
/// `trim` share (rounded down) of them. Requires a non-empty input.
double TrimmedMean(std::vector<double> samples, double trim);

/// Monotonic wall clock in seconds.
double NowSeconds();

/// User + system CPU seconds of the whole process (RUSAGE_SELF), so CPU
/// burnt by every thread counts, not only the caller's.
double ProcessCpuSeconds();

/// Resets the kernel's peak-RSS mark of this process to its current RSS
/// (/proc/self/clear_refs), so PeakRssMb() then reports the peak of what
/// follows. Does nothing where the kernel refuses.
void ResetPeakRss();

/// Peak resident set size of the process in MiB since the last successful
/// ResetPeakRss() (VmHWM), else since it started (ru_maxrss).
double PeakRssMb();

/// Seconds one thread takes for a fixed amount of the benchmark's own work:
/// 4 Mi dependent-free random reads over a 64 MiB table, the median of three
/// rounds. It shares no code with the library and does not depend on the
/// seed, so it measures how fast the host's caches and memory serve this
/// process right now. Allocates its 80 MiB per call and frees them.
double ProbeSeconds();

/// The workloads report setup_s, job_s and cpu_s at the host speed at which
/// ProbeSeconds() takes this long (about its time on the 4-vCPU VM the
/// benchmark was tuned on): each repetition's times are multiplied by
/// kProbeRefS / (the probe just before it). On a shared host the other
/// tenants' use of the last-level cache and memory moves whole runs by 20%
/// and more; the probe moves with them, and the library's own speed does not
/// change the probe.
inline constexpr double kProbeRefS = 0.075;

/// FNV-1a over raw bytes; folds determinism fingerprints.
uint64_t Fnv1a(const void* data, size_t size, uint64_t h = 1469598103934665603ull);

}  // namespace perfbench
