#!/bin/sh
# Full verification: format check, then the test suite twice — once plain,
# once with ALTX_SANITIZE=address,undefined — with a per-test timeout, so a
# hung fault-injection test fails instead of wedging CI.
#
# Usage: scripts/check.sh [jobs]
#   ALTX_TEST_TIMEOUT   per-test ctest timeout in seconds (default 120)
#   ALTX_SANITIZERS     sanitizer list for the second pass
#                       (default address,undefined; empty skips the pass)
set -eu
ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

# Non-interactive by construction: every failure lands on this trap with a
# non-zero exit, never a prompt — CI and cron runs fail loudly or pass.
trap 'status=$?; if [ "$status" -ne 0 ]; then echo "== check FAILED (exit $status)" >&2; fi; exit $status' EXIT
JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"
TIMEOUT="${ALTX_TEST_TIMEOUT:-120}"
SANITIZERS="${ALTX_SANITIZERS-address,undefined}"

run_pass() {
  builddir="$1"
  shift
  echo "== configure $builddir ($*)"
  cmake -B "$ROOT/$builddir" -S "$ROOT" "$@" >/dev/null
  echo "== build $builddir"
  cmake --build "$ROOT/$builddir" -j "$JOBS" >/dev/null
  echo "== ctest $builddir (timeout ${TIMEOUT}s/test)"
  ctest --test-dir "$ROOT/$builddir" -j "$JOBS" --timeout "$TIMEOUT" \
        --output-on-failure
}

echo "== format check"
"$ROOT/scripts/format.sh" --check

run_pass build -DALTX_SANITIZE=

echo "== altx-check smoke (200 trials, both backends)"
"$ROOT/build/tools/altx-check" --trials 200 --seed 42 --quiet \
    --out "${TMPDIR:-/tmp}"

echo "== altx-check fault smoke (200 posix trials, injected faults)"
# A heap winner waits for its release byte; a teardown path that forgot to
# send it would hang, so the timeout turns a hang into a failure.
timeout 300 "$ROOT/build/tools/altx-check" --trials 200 --seed 7 \
    --backend posix --faults --quiet --out "${TMPDIR:-/tmp}"

echo "== altx-check governor smoke (100 posix trials, perturbed governor)"
"$ROOT/build/tools/altx-check" --trials 100 --seed 42 --backend posix \
    --perturb-governor --quiet --out "${TMPDIR:-/tmp}"

echo "== altx-check governor + predictor smoke (100 posix trials)"
"$ROOT/build/tools/altx-check" --trials 100 --seed 42 --backend posix \
    --perturb-governor --perturb-predictor --quiet --out "${TMPDIR:-/tmp}"

echo "== altx-check negative control (a sabotaged double commit is caught)"
# ALTX_TEST_BREAK_AT_MOST_ONCE deposits a second commit token; the checker
# must exit 1 and name at-most-once-commit, losers reaped late or not.
set +e
neg=$(ALTX_TEST_BREAK_AT_MOST_ONCE=1 "$ROOT/build/tools/altx-check" \
    --backend posix --trials 200 --seed 42 --out "${TMPDIR:-/tmp}" 2>&1)
neg_status=$?
set -e
if [ "$neg_status" -ne 1 ] || ! echo "$neg" | grep -q at-most-once-commit; then
  echo "$neg" | tail -5 >&2
  echo "== negative control: expected exit 1 with at-most-once-commit," \
       "got exit $neg_status" >&2
  exit 1
fi

if [ -n "$SANITIZERS" ]; then
  # Leak detection trips on intentionally SIGKILLed children's inherited
  # allocations; ASAN_OPTIONS keeps the signal on real errors.
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
  run_pass build-sanitize "-DALTX_SANITIZE=$SANITIZERS"
fi

echo "== all checks passed"
