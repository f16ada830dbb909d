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

# Fresh bench outputs go under build/; each is diffed against its committed
# BENCH_*.json baseline, which must match exactly on every modeled field.
echo "==> spill micro-benchmark (BENCH_spill.json)"
./build/bench/bench_spill build/BENCH_spill.json

echo "==> overlapped-I/O pipeline bench (BENCH_pipeline.json)"
./build/bench/bench_pipeline build/BENCH_pipeline.json

echo "==> adaptive-crossover bench (BENCH_adaptive.json)"
./build/bench/bench_fig11_13_prediction build/BENCH_adaptive.json

echo "==> skew-armor bench (BENCH_skew.json)"
./build/bench/bench_skew build/BENCH_skew.json

echo "==> streaming-epoch bench (BENCH_stream.json)"
./build/bench/bench_stream build/BENCH_stream.json

echo "==> graphhp bench (BENCH_ghp.json)"
./build/bench/bench_ghp build/BENCH_ghp.json

echo "==> graphhp cross-thread determinism (diff_metrics.py)"
./build/tools/hg_run --graph dataset:wiki --algo sssp --mode graphhp \
    --threads 1 --csv build/ghp_t1.csv >/dev/null
./build/tools/hg_run --graph dataset:wiki --algo sssp --mode graphhp \
    --threads 8 --csv build/ghp_t8.csv >/dev/null
python3 scripts/diff_metrics.py build/ghp_t1.csv build/ghp_t8.csv

echo "==> modeled drift against the committed baselines (bench_diff.py)"
for f in BENCH_*.json; do
  python3 scripts/bench_diff.py "$f" "build/$f"
done

echo "==> bench_diff self-check: a hand-edited modeled value must fail"
python3 - <<'PY'
import json
with open("BENCH_stream.json") as f:
    bench = json.load(f)
bench["rows"][0]["epoch_io_bytes"] += 1
with open("build/BENCH_stream.edited.json", "w") as f:
    json.dump(bench, f)
PY
rc=0
python3 scripts/bench_diff.py BENCH_stream.json build/BENCH_stream.edited.json \
    >/dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "bench_diff exited $rc on a hand-edited modeled value (want 1)"
  exit 1
fi

echo "==> AddressSanitizer sweep"
sh scripts/check_asan.sh build-asan

echo "==> ThreadSanitizer sweep"
sh scripts/check_tsan.sh build-tsan

echo "==> UndefinedBehaviorSanitizer sweep"
sh scripts/check_ubsan.sh build-ubsan

echo "CI gate passed: build, tests, ASan, TSan and UBSan all clean"
