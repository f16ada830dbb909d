#!/bin/sh
# Single-entry CI gate: plain build + full test suite, then the three
# sanitizer sweeps. Everything a change must pass before it merges.
#
#   scripts/ci.sh   # uses build/, build-asan/, build-tsan/, build-ubsan/
set -eu
cd "$(dirname "$0")/.."

echo "==> header hygiene (each public core header compiles in an isolated TU)"
sh scripts/check_headers.sh

echo "==> plain build + full ctest"
cmake -B build -S .
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "==> repository benchmark self-tests (perfbench/tests)"
python3 perfbench/tests/run_tests.py

echo "==> spill micro-benchmark (BENCH_spill.json)"
./build/bench/bench_spill BENCH_spill.json

echo "==> overlapped-I/O pipeline bench (BENCH_pipeline.json)"
./build/bench/bench_pipeline BENCH_pipeline.json

echo "==> adaptive-crossover bench (BENCH_adaptive.json)"
./build/bench/bench_fig11_13_prediction BENCH_adaptive.json

echo "==> skew-armor bench (BENCH_skew.json)"
./build/bench/bench_skew BENCH_skew.json

echo "==> streaming-epoch bench (BENCH_stream.json)"
./build/bench/bench_stream BENCH_stream.json

echo "==> graphhp bench (BENCH_ghp.json)"
./build/bench/bench_ghp BENCH_ghp.json

echo "==> graphhp cross-thread determinism (diff_metrics.py)"
./build/tools/hg_run --graph dataset:wiki --algo sssp --mode graphhp \
    --threads 1 --csv build/ghp_t1.csv >/dev/null
./build/tools/hg_run --graph dataset:wiki --algo sssp --mode graphhp \
    --threads 8 --csv build/ghp_t8.csv >/dev/null
python3 scripts/diff_metrics.py build/ghp_t1.csv build/ghp_t8.csv

# The benchmark baselines are under version control; report how far this run
# drifted from them (wall-time columns always move) without committing.
echo "==> benchmark baseline drift"
git --no-pager diff --stat -- BENCH_*.json 2>/dev/null || true

echo "==> AddressSanitizer sweep"
sh scripts/check_asan.sh build-asan

echo "==> ThreadSanitizer sweep"
sh scripts/check_tsan.sh build-tsan

echo "==> UndefinedBehaviorSanitizer sweep"
sh scripts/check_ubsan.sh build-ubsan

echo "CI gate passed: build, tests, ASan, TSan and UBSan all clean"
