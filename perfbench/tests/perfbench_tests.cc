// Unit tests of the benchmark's own helpers. Run through
// perfbench/tests/run_tests.py, or directly: perfbench_tests (exit 0 = pass).
#include <time.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int failures = 0;

void Expect(bool cond, const std::string& what) {
  if (!cond) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));  // n..1
  return v;
}

void TestPercentileNeedsTenSamplesBeyond() {
  struct Case {
    double q;
    size_t min_n;
  };
  for (const Case c : {Case{0.5, 20}, Case{0.9, 100}, Case{0.99, 1000}}) {
    const std::string p = "p" + std::to_string(static_cast<int>(c.q * 100 + 0.5));
    auto short_r = Percentile(Ramp(c.min_n - 1), c.q);
    Expect(!short_r.ok(), p + " refused with one sample too few");
    auto r = Percentile(Ramp(c.min_n), c.q);
    Expect(r.ok(), p + " accepted at the minimum");
    // Nearest rank: exactly 10 of the 1..n ramp lie above the answer.
    if (r.ok()) Expect(*r == static_cast<double>(c.min_n - 10), p + " nearest-rank value");
  }
  Expect(!Percentile({}, 0.5).ok(), "empty input refused");
  Expect(!Percentile(Ramp(5000), 1.0).ok(), "q = 1 refused");
  Expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5, "median of repetitions");
  Expect(TrimmedMean({100, 1, 2, 3, 4, 5, 6, 7, 8, -50}, 0.1) == 4.5,
         "trimmed mean drops one sample from each end of ten");
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void TestCpuCountsOtherThreads() {
  // Two helper threads each burn 0.2 s of their own CPU while the calling
  // thread only waits; process-wide CPU must see both.
  const double before = ProcessCpuSeconds();
  const double caller_before = ThreadCpuSeconds();
  std::vector<std::thread> burners;
  for (int i = 0; i < 2; ++i) {
    burners.emplace_back([] {
      volatile uint64_t sink = 0;
      while (ThreadCpuSeconds() < 0.2) sink = sink + 1;
    });
  }
  for (std::thread& t : burners) t.join();
  const double caller = ThreadCpuSeconds() - caller_before;
  const double process = ProcessCpuSeconds() - before;
  Expect(caller < 0.1, "the caller itself stayed idle");
  Expect(process >= 0.39, "process CPU includes helper threads (got " +
                              std::to_string(process) + " s)");
}

void TestSeedChangesInputs() {
  auto a = SeededDataset("livej", 1);
  auto b = SeededDataset("livej", 2);
  Expect(a.ok() && b.ok(), "livej is in the catalog");
  if (!a.ok() || !b.ok()) return;
  const auto ga = hybridgraph::BuildDataset(*a);
  const auto ga2 = hybridgraph::BuildDataset(*a);
  const auto gb = hybridgraph::BuildDataset(*b);
  Expect(GraphFingerprint(ga) == GraphFingerprint(ga2), "same seed, same graph");
  Expect(GraphFingerprint(ga) != GraphFingerprint(gb), "another seed, another graph");
  Expect(ga.num_vertices == gb.num_vertices, "the seed keeps the dataset's shape");
  auto stream = [&](uint64_t seed, uint32_t session) {
    return StreamFingerprint(ServeStream(ga, seed, session, 4));
  };
  Expect(stream(1, 0) == stream(1, 0), "same seed, same stream");
  Expect(stream(1, 0) != stream(2, 0), "another seed, another stream");
  Expect(stream(1, 0) != stream(1, 1), "another session, another stream");
  for (const auto& batch : ServeStream(ga, 3, 0, 4)) {
    Expect(batch.deltas.size() == 64 && !batch.HasDeletes(), "insert-only batches of 64");
  }
}

void TestDeterminismGuardFailsOnDrift() {
  RunResult r;
  DeterminismGuard guard;
  guard.Check({{"io_bytes", 100}}, 7, &r);
  guard.Check({{"io_bytes", 100}}, 7, &r);
  Expect(r.failed == 0, "identical repetitions pass");
  guard.Check({{"io_bytes", 101}}, 7, &r);
  Expect(r.failed == 1, "a drifted count fails the run");
  guard.Check({{"io_bytes", 100}}, 8, &r);
  Expect(r.failed == 2, "different generated inputs fail the run");
}

}  // namespace

int main() {
  TestPercentileNeedsTenSamplesBeyond();
  TestCpuCountsOtherThreads();
  TestSeedChangesInputs();
  TestDeterminismGuardFailsOnDrift();
  std::printf("%s (%d failure%s)\n", failures ? "FAILED" : "OK", failures,
              failures == 1 ? "" : "s");
  return failures ? 1 : 0;
}
