#!/usr/bin/env bash
# Header self-containment gate: every public header under src/ must compile
# standalone (a translation unit consisting of just that #include), so the
# layered includes stay honest — a header silently leaning on something its
# includer happened to pull in first breaks the next consumer. It also fails
# when anything under src/rtos/ depends on src/trace/. Registered as
# the `check_headers` ctest (see the top-level CMakeLists.txt).
#
#   ci/check_headers.sh [--cxx COMPILER]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

cxx="${CXX:-c++}"
if [[ "${1:-}" == "--cxx" && -n "${2:-}" ]]; then
  cxx="$2"
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# Coverage guard: every module expected to export headers must contribute at
# least one, so a glob or layout change can't silently shrink what the gate
# checks. New modules should be added here when they gain public headers.
expected_modules="sim trace rtos arch refine iss vocoder analysis explore obs fault parallel soak sys"
fail=0
for mod in $expected_modules; do
  if ! find "src/$mod" -name '*.hpp' -print -quit 2>/dev/null | grep -q .; then
    echo "check_headers: expected module src/$mod contributes no headers" >&2
    fail=1
  fi
done

# Layering guard: the RTOS core knows nothing of tracing. Trace recording
# attaches through the OsObserver seam (trace::RtosTraceAdapter), so no file
# under src/rtos/ may include a trace/ header or name the trace:: namespace.
if grep -rnE '#include[[:space:]]*"trace/|trace::' src/rtos/ >&2; then
  echo "check_headers: src/rtos/ must not depend on src/trace/ (see above)" >&2
  fail=1
fi

checked=0
while IFS= read -r header; do
  tu="$tmpdir/tu.cpp"
  printf '#include "%s"\n' "${header#src/}" > "$tu"
  if ! "$cxx" -std=c++20 -fsyntax-only -Wall -Wextra -Werror -I src \
       "$tu" 2> "$tmpdir/err.txt"; then
    echo "check_headers: $header is not self-contained:" >&2
    sed 's/^/  /' "$tmpdir/err.txt" >&2
    fail=1
  fi
  checked=$((checked + 1))
done < <(find src -name '*.hpp' | sort)

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "check_headers: OK ($checked headers compile standalone)"
