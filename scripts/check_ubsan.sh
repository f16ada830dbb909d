#!/bin/sh
# Builds the tree with UndefinedBehaviorSanitizer (-DHG_SANITIZE=undefined)
# and runs the suites that decode and merge message and edge records: the
# spill sort and merge kernels (including corrupted runs), the push wire
# batch, the checkpoint image, recovery, the differential fuzz, and the
# adjacency, Eblock, overlay and edge-run suites. Any report halts the run
# with a stack trace and a nonzero exit.
set -eu
GTEST_FILTERED="$(dirname "$0")/gtest_filtered.sh"
BUILD_DIR="${1:-build-ubsan}"

cmake -B "$BUILD_DIR" -S . -DHG_SANITIZE=undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target hg_io_tests hg_core_tests hg_graph_tests

export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}"
sh "$GTEST_FILTERED" "$BUILD_DIR"/tests/hg_io_tests \
  '*Spill*:*MergeIterator*:*Corruption*:Seeds/StreamingDifferentialTest.*'
sh "$GTEST_FILTERED" "$BUILD_DIR"/tests/hg_core_tests \
  'PushWire*:MessageFlow*:Checkpoint*:DifferentialFuzz*:*MessagePath*:Recovery*'
sh "$GTEST_FILTERED" "$BUILD_DIR"/tests/hg_graph_tests \
  'AdjacencyStore*:VeBlockStore*:VeBlockOverlay*:BoundaryInner*:EdgeRuns*'
echo "UBSan clean: spill kernels + push wire + checkpoint + recovery + differential fuzz + edge-run stores"
