#!/bin/sh
# Runs every bench binary and writes the combined report to bench_output.txt.
# Each bench runs with build/ as its working directory, so the BENCH_*.json
# files the benches write by default land in build/ and never overwrite the
# committed baselines at the repository root.
set -u
OUT="$(realpath -m "${1:-bench_output.txt}")"
: > "$OUT"
for b in build/bench/bench_*; do
  [ -x "$b" ] || continue
  echo "" >> "$OUT"
  echo "################ $b ################" >> "$OUT"
  (cd build && "../$b") >> "$OUT" 2>&1
done
echo "wrote $OUT"
