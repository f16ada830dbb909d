#!/bin/sh
# Runs one gtest binary under a --gtest_filter after checking that every
# ':'-separated pattern of the filter selects at least one test. A pattern
# that matches nothing (a renamed or deleted suite) fails the run instead of
# silently shrinking the sweep.
#
#   sh scripts/gtest_filtered.sh BINARY FILTER
set -eu
bin="$1"
filter="$2"
set -f  # the patterns' '*' are gtest wildcards, not shell globs
old_ifs=$IFS
IFS=:
for pattern in $filter; do
  count=$("$bin" --gtest_list_tests --gtest_filter="$pattern" | grep -c '^  ' || true)
  if [ "$count" -eq 0 ]; then
    echo "$bin: filter pattern '$pattern' selects no tests" >&2
    exit 1
  fi
done
IFS=$old_ifs
exec "$bin" --gtest_filter="$filter"
