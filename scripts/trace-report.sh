#!/usr/bin/env bash
# Trace one quick figure run and print the offline analyzer's report —
# the local twin of CI's "Analyze fig13 trace" step.
#
#   usage: trace-report.sh [figure] [jobs] [outdir]
#          (defaults: fig13 2 lrd-trace-<figure>)
#
# Leaves <outdir>/<figure>-trace.json (load it in ui.perfetto.dev) and
# <outdir>/<figure>-report.json (stable lrd-trace-report/2 JSON, diff it
# against an older run's to chase a regression) next to the text report
# on stdout.
set -euo pipefail

cd "$(dirname "$0")/.."

figure="${1:-fig13}"
jobs="${2:-2}"
outdir="${3:-lrd-trace-$figure}"

dune build bin/lrd_cli.exe
lrd=_build/default/bin/lrd_cli.exe

mkdir -p "$outdir"
trace="$outdir/$figure-trace.json"

echo "trace-report: tracing quick $figure (-j $jobs)" >&2
"$lrd" experiment "$figure" --quick -j "$jobs" --trace "$trace" > /dev/null

"$lrd" trace report "$trace" --json > "$outdir/$figure-report.json"
"$lrd" trace report "$trace"
