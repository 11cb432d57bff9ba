#!/usr/bin/env bash
# The bench-gate manifest: every bench with a committed quick baseline
# (bench/baselines/<bench>.quick.json) runs in quick mode with --json and
# is compared against that baseline by bench_compare --skip-latency
# (latency is machine-specific; counters and verdicts are deterministic).
# Adding a baseline file adds a gate; nothing else lists the benches.
#
# Usage:
#   scripts/bench_gates.sh [BUILD_DIR]   # run every gate (default: build)
#   scripts/bench_gates.sh --targets     # print the CMake targets the gates need
#
# Runs every gate, then exits non-zero if any bench or comparison failed.
set -uo pipefail

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO"

benches() {
  local f
  for f in bench/baselines/*.quick.json; do
    basename "$f" .quick.json
  done
}

if [ "${1:-}" = "--targets" ]; then
  echo $(benches) bench_compare
  exit 0
fi

BUILD="${1:-build}"
FAILED=()
for bench in $(benches); do
  echo "---- bench gate: $bench"
  flags=(--skip-latency)
  # The exceptions: these benches' counters come from timed loops
  # (iteration counts are machine-dependent), so only their verdicts gate —
  # bench_throughput's compiled-plan 1e-5 equivalence and >= 2x speedup,
  # bench_overhead's <2% observability and robust-path taxes.
  if [ "$bench" = bench_throughput ] || [ "$bench" = bench_overhead ]; then
    flags+=(--skip-counters)
  fi
  report="$BUILD/BENCH_$bench.json"
  if MANDIPASS_BENCH_QUICK=1 "$BUILD/bench/$bench" --json "$report" &&
    "$BUILD/tools/bench_compare" "${flags[@]}" "bench/baselines/$bench.quick.json" "$report"; then
    echo "---- $bench: ok"
  else
    echo "---- $bench: FAILED"
    FAILED+=("$bench")
  fi
done

if [ "${#FAILED[@]}" -gt 0 ]; then
  echo "bench_gates.sh: failed: ${FAILED[*]}"
  exit 1
fi
echo "bench_gates.sh: all bench gates passed"
