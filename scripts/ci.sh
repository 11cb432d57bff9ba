#!/usr/bin/env bash
# Offline CI driver: runs the same jobs as .github/workflows/ci.yml
# sequentially on the local machine (bench-smoke reuses build-werror's
# tree, so keep that ordering). Each job is independent; this script
# reports every job's status and fails if any job failed, so a tidy failure
# does not mask a sanitizer failure.
set -uo pipefail

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO"
JOBS="$(nproc 2>/dev/null || echo 2)"

declare -A STATUS

run_job() {
  local name="$1"
  shift
  echo
  echo "==== ci job: $name ===="
  if "$@"; then
    STATUS[$name]=ok
  else
    STATUS[$name]=FAILED
  fi
}

job_build_werror() {
  cmake --preset default >/dev/null &&
    cmake --build --preset default -j "$JOBS" &&
    ctest --preset default -j "$JOBS"
}

job_bench_smoke() {
  # The benchmark's own arithmetic (percentiles, spreads, probe means).
  python3 perfbench/run.py --selftest &&
    scripts/bench_gates.sh build
}

# Mirrors the no-simd CI job: the generic int32 GEMM and slice-by-8
# CRC-32 fallback tiers must pass the full suite (incl. the perf
# cross-tier/bit-identity tests and test_crc32) alone.
job_no_simd() {
  cmake -B build-generic -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMANDIPASS_WARNINGS_AS_ERRORS=ON -DMANDIPASS_FORCE_GENERIC_KERNELS=ON >/dev/null &&
    cmake --build build-generic -j "$JOBS" &&
    (cd build-generic && ctest --output-on-failure -j "$JOBS")
}

job_no_obs() {
  cmake -B build-no-obs -S . -DMANDIPASS_NO_OBS=ON \
    -DMANDIPASS_BUILD_TESTS=OFF -DMANDIPASS_BUILD_EXAMPLES=OFF >/dev/null &&
    cmake --build build-no-obs -j "$JOBS"
}

job_fault() {
  cmake --preset asan >/dev/null &&
    cmake --build --preset asan -j "$JOBS" --target test_fault &&
    ctest --preset asan -L fault --output-on-failure
}

job_sanitize() {
  cmake --preset asan >/dev/null &&
    cmake --build --preset asan -j "$JOBS" &&
    ctest --preset asan -j "$JOBS" &&
    cmake --preset tsan >/dev/null &&
    cmake --build --preset tsan -j "$JOBS" &&
    ctest --preset tsan -j "$JOBS"
}

# Chaos storm under ASan+UBSan: the asan preset builds without benches,
# so re-enable just bench_chaos and gate on its resilience exit verdicts
# (no crash, bounded shed, bounded p99, full recovery). No baseline
# compare here — the default-preset bench-smoke job already gates the
# counters exactly; this job exists to prove the overload/degraded/
# recovery paths are memory-clean while faults are firing.
job_chaos_asan() {
  cmake --preset asan -DMANDIPASS_BUILD_BENCH=ON >/dev/null &&
    cmake --build --preset asan -j "$JOBS" --target bench_chaos &&
    build-asan/bench/bench_chaos --quick
}

# The same storms under ThreadSanitizer: admission, stalls and degraded
# serving run on the caller thread while healthy shards run on the pool,
# and bench_chaos drives both with real workers. Verdict-gated like
# chaos-asan; the tsan preset builds without benches, so re-enable them.
job_chaos_tsan() {
  cmake --preset tsan -DMANDIPASS_BUILD_BENCH=ON >/dev/null &&
    cmake --build --preset tsan -j "$JOBS" --target bench_chaos &&
    build-tsan/bench/bench_chaos --quick
}

run_job "build-werror"  job_build_werror
run_job "bench-smoke"   job_bench_smoke
run_job "no-obs"        job_no_obs
run_job "no-simd"       job_no_simd
run_job "fault"         job_fault
run_job "sanitize"      job_sanitize
run_job "chaos-asan"    job_chaos_asan
run_job "chaos-tsan"    job_chaos_tsan
run_job "clang-tidy"    scripts/run_tidy.sh
run_job "tsafety"       scripts/tsafety.sh
run_job "mandilint"     scripts/lint.sh

echo
echo "==== ci summary ===="
FAIL=0
for name in build-werror bench-smoke no-obs no-simd fault sanitize chaos-asan chaos-tsan clang-tidy tsafety mandilint; do
  echo "  $name: ${STATUS[$name]}"
  [ "${STATUS[$name]}" = ok ] || FAIL=1
done
exit "$FAIL"
