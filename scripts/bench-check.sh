#!/usr/bin/env bash
# Run the micro-benchmark suite and diff it against the committed
# BENCH_micro.json baseline with `lrd metrics diff`.  Exit codes:
#   0  no >2x regressions (kernels missing from the current run — e.g.
#      an --only-filtered sweep — warn but do not fail)
#   2  baseline missing/malformed, or unreadable diff input — fatal
#   3  at least one benchmark regressed >2x — CI annotates but does not
#      fail on this (shared runners are too noisy for a hard perf gate)
# The diff report lands on stdout (CI captures it into the step
# summary); benchmark progress goes to stderr.  Extra arguments are
# passed to the bench binary (e.g. --quick, --only kernel/rfft).
set -euo pipefail

cd "$(dirname "$0")/.."

baseline="BENCH_micro.json"
if [ ! -r "$baseline" ]; then
  echo "bench-check: baseline $baseline is missing or unreadable" >&2
  exit 2
fi
# Cheap structural sanity check before spending minutes benchmarking:
# the baseline must contain at least one row in the emit_json format.
if ! grep -q '"name":.*"ns_per_run":' "$baseline"; then
  echo "bench-check: $baseline has no parseable benchmark rows (malformed JSON?)" >&2
  exit 2
fi

# BENCH_CURRENT_JSON lets CI keep the freshly measured run around for
# follow-up diffs (the hard kernel-only gate) without re-benchmarking.
if [ -n "${BENCH_CURRENT_JSON:-}" ]; then
  current="$BENCH_CURRENT_JSON"
else
  current="$(mktemp -t bench-check-current.XXXXXX.json)"
  trap 'rm -f "$current"' EXIT
fi

# The bench table goes to stderr so stdout carries only the diff report.
dune exec bench/main.exe -- --micro --json "$current" "$@" 1>&2

# The diff engine owns the comparison policy (2x ratio, tolerate
# missing kernels); its exit code passes through untouched.
dune exec bin/lrd_cli.exe -- metrics diff "$baseline" "$current" --threshold 2
