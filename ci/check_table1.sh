#!/usr/bin/env bash
# Table 1 gate: the simulated rows of `bench_table1 200` — model size,
# context switches, transcoding delay, data integrity, the derived delay
# ratios and the shape checks — must match ci/table1_golden.txt byte for
# byte. Host-time rows (execution time and the sim-time ratios) are stripped
# first, so only a change to simulated behaviour fails the gate: dispatch
# and kernel optimisations cannot change Table 1 silently. Registered as the
# `check_table1` ctest (see the top-level CMakeLists.txt).
#
#   ci/check_table1.sh [--build-dir DIR]
#
# To regenerate the golden after an intended change of simulated behaviour:
#   build/bench/bench_table1 200 | grep -v -e 'Execution time' -e 'sim time' \
#     > ci/table1_golden.txt
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build"
if [[ "${1:-}" == "--build-dir" && -n "${2:-}" ]]; then
  build_dir="$2"
fi

bench="$build_dir/bench/bench_table1"
golden="$repo_root/ci/table1_golden.txt"
if [ ! -x "$bench" ]; then
  echo "check_table1: $bench not built (build the repo first)" >&2
  exit 1
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

"$bench" 200 > "$tmpdir/raw.txt"
grep -v -e 'Execution time' -e 'sim time' "$tmpdir/raw.txt" > "$tmpdir/table1.txt"

if ! cmp -s "$golden" "$tmpdir/table1.txt"; then
  echo "check_table1: simulated Table 1 rows differ from $golden:" >&2
  diff "$golden" "$tmpdir/table1.txt" >&2 || true
  exit 1
fi

echo "check_table1: OK (simulated Table 1 rows match the golden)"
