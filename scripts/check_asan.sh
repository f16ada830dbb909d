#!/bin/sh
# Builds the tree with AddressSanitizer (-DHG_SANITIZE=address) and runs the
# memory-hazard-sensitive suites: codec/fuzz decoding of corrupted inputs,
# the fail-point + fault-injection paths, the TCP transport, and checkpoint
# restore from truncated/bit-flipped images. Any heap error fails the run
# (ASan exits nonzero).
set -eu
GTEST_FILTERED="$(dirname "$0")/gtest_filtered.sh"
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DHG_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target hg_util_tests hg_net_tests hg_core_tests hg_io_tests hg_graph_tests hg_serve_tests

export ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+ $ASAN_OPTIONS}"
sh "$GTEST_FILTERED" "$BUILD_DIR"/tests/hg_util_tests 'FailPoint*:Codec*:Buffer*'
"$BUILD_DIR"/tests/hg_net_tests
sh "$GTEST_FILTERED" "$BUILD_DIR"/tests/hg_core_tests \
  'FaultInjection*:DifferentialFuzz*:Recovery*:Checkpoint*:*MessagePath*:PullWireValidation*:PullResponseGolden*:PushWireValidation*:PushWireGolden*:HybridGolden*:TraceSpans*:*Pipeline*:*Adaptive*:Frontier*:SkewArmor*:EpochDifferential*:Ghp*'
# The stores walk adjacency blocks and fragment blobs through the edge-run
# walker and the overlay decodes delta-run blobs (including torn-compaction
# leftovers); the serve protocol decodes wire payloads — all are
# corruption-fuzzed.
sh "$GTEST_FILTERED" "$BUILD_DIR"/tests/hg_graph_tests 'VeBlockStore*:VeBlockOverlay*:EdgeStream*:BoundaryInner*:AdjacencyStore*:EdgeRuns*'
"$BUILD_DIR"/tests/hg_serve_tests
# The spill suite decodes deliberately truncated/bit-flipped run files and
# streams merges through minimal buffers — the OOB-sensitive paths the
# corruption fuzzers exist for.
sh "$GTEST_FILTERED" "$BUILD_DIR"/tests/hg_io_tests \
  '*Spill*:*MergeIterator*:*Corruption*:Prefetch*:Storage*:Seeds/StreamingDifferentialTest.*'
echo "ASan clean: codec fuzz + fault injection + transport + recovery + spill + overlay/serve tests ran leak/overflow-free"
