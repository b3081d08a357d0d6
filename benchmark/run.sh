#!/usr/bin/env bash
# The one command. Builds the benchmark in release mode from source, then
# runs it; the program pins itself to one CPU before it does anything else.
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result
#   run.sh [--seed N] [--seconds S] [--out DIR]
#       a complete record: all six workloads, untraced then traced,
#       written to DIR/latest.json (default: benchmark/results)
#   run.sh --compare A.json B.json
#       two complete records, one row per workload and end-to-end metric;
#       exit 1 on any `worse` row or any rise in failed operations
#
# See README.md beside this file.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started in, so stay there and resolve it the same way for the binary.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# glibc raises its mmap threshold as large blocks are freed, which makes
# peak RSS land on one of two values 10 % apart from run to run (measured on
# daxpy_sweep: 10.3 or 11.3 MB; pinned at the default, 8.4 MB every time).
export MALLOC_MMAP_THRESHOLD_=131072

exec "$target/release/cobra-benchmark" --root "$here" "$@"
