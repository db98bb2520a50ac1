#!/usr/bin/env bash
# Span-tracing determinism gate: the causal span streams described in
# docs/span-tracing.md must reproduce byte-for-byte no matter how the run is
# repeated or parallelised. Three checks:
#
#   1. token_trace (two-PE vocoder with an obs::SpanRecorder wired in) run
#      twice must produce identical slm-span-dump-v1 dumps, and the dump must
#      carry the schema header and at least one latency span.
#   2. mapping_sweep --spans --replay-winner serially and at --jobs 1, 2, and
#      8 must produce identical dumps — the attributed sweep JSON AND the
#      winner replay's full span stream (worker-local recorders are the
#      mechanism; this gate is the contract).
#   3. The token_trace exit code is itself a gate: it exits nonzero unless
#      every token's critical-path segments sum exactly to its observed
#      latency, so this script fails on any estimation drift too.
#   4. Scale leg: the same exactness gate over 1000 frames, and a 100-frame
#      attributed sweep serial vs --jobs 2, so extraction stays under test at
#      a horizon where a quadratic regression would show.
#
# Registered as the `check_spans` ctest (see the top-level CMakeLists.txt),
# so it also runs inside the ASan/TSan trees built by `ci/sanitize.sh`.
#
#   ci/check_spans.sh [--build-dir DIR]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build"
if [[ "${1:-}" == "--build-dir" && -n "${2:-}" ]]; then
  build_dir="$2"
fi

token_trace="$build_dir/examples/token_trace"
sweep="$build_dir/examples/mapping_sweep"
for bin in "$token_trace" "$sweep"; do
  if [ ! -x "$bin" ]; then
    echo "check_spans: $bin not built (build the repo first)" >&2
    exit 1
  fi
done

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

require_identical() {  # require_identical WHAT REFERENCE CANDIDATE LABEL
  if ! cmp -s "$2" "$3"; then
    echo "check_spans: $1 ($4) diverged from the reference run:" >&2
    diff "$2" "$3" | head -10 >&2
    exit 1
  fi
}

# 1. Run-to-run determinism of the canonical span dump (exactness enforced by
#    the example's own exit code).
"$token_trace" --frames 4 --quiet --dump "$tmpdir/spans_a.jsonl"
"$token_trace" --frames 4 --quiet --dump "$tmpdir/spans_b.jsonl"
if [ ! -s "$tmpdir/spans_a.jsonl" ]; then
  echo "check_spans: token_trace produced an empty span dump" >&2
  exit 1
fi
if ! grep -q '"schema":"slm-span-dump-v1"' "$tmpdir/spans_a.jsonl"; then
  echo "check_spans: dump is missing the slm-span-dump-v1 schema tag" >&2
  exit 1
fi
if ! grep -q '"kind":"latency"' "$tmpdir/spans_a.jsonl"; then
  echo "check_spans: dump has no latency spans (tokens not traced?)" >&2
  exit 1
fi
require_identical "token_trace span dump" "$tmpdir/spans_a.jsonl" \
                  "$tmpdir/spans_b.jsonl" "repeat run"

# 2. Attributed sweep + winner-replay span stream, serial vs parallel.
"$sweep" --frames 4 --spans --replay-winner --dump "$tmpdir/sweep_serial.json"
if ! grep -q '"attribution":{' "$tmpdir/sweep_serial.json"; then
  echo "check_spans: sweep dump carries no attribution objects" >&2
  exit 1
fi
if ! grep -q '"exact":true' "$tmpdir/sweep_serial.json"; then
  echo "check_spans: no candidate attribution is marked exact" >&2
  exit 1
fi
if grep -q '"exact":false' "$tmpdir/sweep_serial.json"; then
  echo "check_spans: a candidate attribution failed the exactness contract" >&2
  exit 1
fi
if ! grep -q '"schema":"slm-span-dump-v1"' "$tmpdir/sweep_serial.json"; then
  echo "check_spans: sweep dump is missing the winner-replay span stream" >&2
  exit 1
fi
for jobs in 1 2 8; do
  "$sweep" --frames 4 --jobs "$jobs" --spans --replay-winner \
           --dump "$tmpdir/sweep_j$jobs.json"
  require_identical "mapping_sweep --spans" "$tmpdir/sweep_serial.json" \
                    "$tmpdir/sweep_j$jobs.json" "--jobs $jobs"
done

# 4. Scale leg: exactness over a long horizon, and a long attributed sweep
#    byte-identical serial vs parallel.
"$token_trace" --frames 1000 --quiet
"$sweep" --frames 100 --spans --dump "$tmpdir/sweep100_serial.json"
"$sweep" --frames 100 --jobs 2 --spans --dump "$tmpdir/sweep100_j2.json"
if grep -q '"exact":false' "$tmpdir/sweep100_serial.json"; then
  echo "check_spans: a 100-frame candidate attribution is inexact" >&2
  exit 1
fi
require_identical "mapping_sweep --frames 100 --spans" "$tmpdir/sweep100_serial.json" \
                  "$tmpdir/sweep100_j2.json" "--jobs 2"

echo "check_spans: OK (span dumps byte-identical run-to-run and at --jobs 1/2/8;" \
     "exact at 1000 frames)"
