#!/bin/sh
# Builds the tree with UndefinedBehaviorSanitizer (-DHG_SANITIZE=undefined)
# and runs the suites that decode and merge message records: the spill sort
# and merge kernels (including corrupted runs), the push wire batch, the
# checkpoint image, recovery and the differential fuzz. Any report halts
# the run with a stack trace and a nonzero exit.
set -eu
BUILD_DIR="${1:-build-ubsan}"

cmake -B "$BUILD_DIR" -S . -DHG_SANITIZE=undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" --target hg_io_tests hg_core_tests

export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}"
"$BUILD_DIR"/tests/hg_io_tests --gtest_filter='*Spill*:*MergeIterator*:*Corruption*'
"$BUILD_DIR"/tests/hg_core_tests \
  --gtest_filter='PushWire*:MessageFlow*:Checkpoint*:DifferentialFuzz*:*MessagePath*:Recovery*'
echo "UBSan clean: spill kernels + push wire + checkpoint + recovery + differential fuzz"
