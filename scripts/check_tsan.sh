#!/bin/sh
# Builds the tree with ThreadSanitizer (-DHG_SANITIZE=thread) and runs the
# concurrency-sensitive tests: the thread pool and the parallel engine suite
# at num_threads > 1. Any data race fails the run (TSan exits nonzero).
set -eu
GTEST_FILTERED="$(dirname "$0")/gtest_filtered.sh"
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DHG_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" --target hg_util_tests hg_core_tests hg_io_tests hg_net_tests hg_serve_tests

export TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+ $TSAN_OPTIONS}"
sh "$GTEST_FILTERED" "$BUILD_DIR"/tests/hg_util_tests 'ThreadPool.*'
# *Adaptive* covers the per-cell path's multi-threaded differential and the
# cross-thread-count determinism check (per-node scratch must stay unshared).
# SkewArmor* adds the mirroring/dedup differentials at 8 threads (per-node
# mirror accumulators and advert staging must stay unshared across workers).
# PullResponseGolden* serves concurrent pulls at 8 threads through the
# per-requester Pull-Respond scratch; PushWireGolden* posts push batches from
# 8 worker threads into the per-sender staging. PushWireValidation* rejects
# hostile push batches at the drain barrier.
sh "$GTEST_FILTERED" "$BUILD_DIR"/tests/hg_core_tests '*Parallel*:*MessagePathConformance*:*Pipeline*:*Adaptive*:SkewArmor*:EpochDifferential.ModeledMetrics*:Ghp*:PullResponseGolden*:PushWireGolden*:PushWireValidation*'
# The query server races transport dispatch threads against the epoch
# thread: snapshot publication, the ingest queue, and the metrics mutex are
# exactly the seams TSan watches.
sh "$GTEST_FILTERED" "$BUILD_DIR"/tests/hg_serve_tests 'ServeServer.*'
# The prefetch pipeline is the one place a background thread touches storage
# while compute threads read through it — the mutation-observer and
# Fetch/Cancel races live here.
sh "$GTEST_FILTERED" "$BUILD_DIR"/tests/hg_io_tests 'Prefetch*:*AsyncRead*'
# TcpTransport: server threads accept on the listen sockets while Shutdown
# tears them down, and dispatch threads run handlers beside the callers.
sh "$GTEST_FILTERED" "$BUILD_DIR"/tests/hg_net_tests 'TcpTransport.*'
echo "TSan clean: thread pool + parallel engine + prefetch pipeline + TCP transport + query server tests ran race-free"
