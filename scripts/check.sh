#!/usr/bin/env bash
# The single correctness gate. Runs, in order:
#
#   1. default preset: RelWithDebInfo build with the strict warning set and
#      MANDIPASS_WARNINGS_AS_ERRORS=ON, then the full ctest suite
#   2. bench gates:    scripts/bench_gates.sh — every bench with a
#      committed bench/baselines/*.quick.json runs in quick mode, gated by
#      bench_compare (counters/verdicts only; latency is machine-specific)
#   3. asan preset:    ASan+UBSan instrumented build + ctest
#   4. tsan preset:    TSan instrumented build + ctest
#   5. clang-tidy over src/ (skipped if clang-tidy is not installed)
#   6. Clang thread-safety capability analysis (tsafety preset; skipped
#      if clang++ is not installed)
#   7. mandilint repo-invariant linter
#
# Usage:
#   scripts/check.sh           # everything
#   scripts/check.sh --fast    # skip the sanitizer builds (steps 2-3)
#
# Exits non-zero on the first failing step.
set -euo pipefail

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO"

FAST=0
if [ "${1:-}" = "--fast" ]; then
  FAST=1
fi

JOBS="$(nproc 2>/dev/null || echo 2)"

step() {
  echo
  echo "==== check.sh: $* ===="
}

step "default build (warnings-as-errors) + ctest"
cmake --preset default >/dev/null
cmake --build --preset default -j "$JOBS"
ctest --preset default -j "$JOBS"

step "bench gates: quick benches + bench_compare vs committed baselines"
scripts/bench_gates.sh build

if [ "$FAST" -eq 0 ]; then
  step "ASan+UBSan build + ctest"
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$JOBS"
  ctest --preset asan -j "$JOBS"

  step "TSan build + ctest"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$JOBS"
  ctest --preset tsan -j "$JOBS"
else
  step "sanitizer builds SKIPPED (--fast)"
fi

step "clang-tidy"
scripts/run_tidy.sh

step "thread-safety analysis"
scripts/tsafety.sh

step "mandilint"
scripts/lint.sh

echo
echo "check.sh: all gates passed"
