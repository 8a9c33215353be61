#!/usr/bin/env bash
# Reports exported values that no shipping code calls.
#
# Usage: scripts/dead-exports.sh
#
# Every `val` in lib/**/*.mli is matched against qualified uses
# (`Module.name`; `Sub.name` for a value declared inside
# `module Sub : sig ... end`) in the .ml files of lib/, bin/, bench/,
# lrdbench/ and examples/.  Comments are stripped first, and the
# module's own .ml is left out, so a value used only inside its module
# counts as unused.  Tests do not count as callers.  A value with no
# use is reported unless scripts/dead-exports.allow lists it (one
# `Path.value  reason` per line).  Exits 1 when anything is reported,
# 2 on a stale allowlist entry (one that no longer names a val, or
# whose value now has a caller).
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/dead-exports.allow
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Qualified tokens per file: "<file> <Qual>.<name>", keeping only the
# last module component (Lrd_core.Solver.solve -> Solver.solve) and
# resolving the file's module aliases (module R = Lrd_x.Registry makes
# R.find read Registry.find).
find lib bin bench lrdbench examples -name '*.ml' -not -path '*/_build/*' |
  sort |
  while read -r f; do
    perl -0777 -ne '
      1 while s/\(\*(?:(?!\(\*|\*\)).)*\*\)//gs;
      my (%alias, %seen);
      $alias{$1} = $2 while /\bmodule\s+([A-Z]\w*)\s*=\s*(?:[A-Z]\w*\.)*([A-Z]\w*)/g;
      while (/((?:[A-Z]\w*\.)+)([a-z_][\w\x27]*)/g) {
        my $q = (split /\./, $1)[-1];
        $q = $alias{$q} if exists $alias{$q};
        $seen{"$q.$2"} = 1;
      }
      print "$ARGV $_\n" for sort keys %seen;
    ' "$f"
  done >"$work/uses"

# Declared values: "<own .ml> <Path> <Qual>.<name>", where Path is the
# full dotted path (Obs.Counter.incr) and Qual the innermost module.
find lib -name '*.mli' -not -path '*/_build/*' | sort | while read -r mli; do
  base=$(basename "$mli" .mli)
  top="$(printf '%s' "${base:0:1}" | tr '[:lower:]' '[:upper:]')${base:1}"
  awk -v top="$top" -v own="${mli%.mli}.ml" '
    function path(  p, i) { p = top; for (i = 1; i <= depth; i++) p = p "." stack[i]; return p }
    /^[[:space:]]*module [A-Z][A-Za-z0-9_]*[[:space:]]*:[[:space:]]*sig/ {
      name = $2; sub(/:.*/, "", name); stack[++depth] = name; next }
    /^[[:space:]]*module type [A-Z][A-Za-z0-9_]*[[:space:]]*=[[:space:]]*sig/ {
      stack[++depth] = $3; next }
    /^[[:space:]]*end([[:space:]]|$)/ { if (depth > 0) depth--; next }
    /^[[:space:]]*val [a-z_]/ {
      name = $2; sub(/:.*/, "", name)
      qual = depth > 0 ? stack[depth] : top
      print own, path() "." name, qual "." name }
  ' "$mli"
done >"$work/vals"

{ grep -vE '^[[:space:]]*(#|$)' "$allow" || true; } | awk '{ print $1 }' |
  sort -u >"$work/allowed"

# A value is used when some file other than its own module's .ml
# mentions its qualified name.
awk 'NR == FNR { users[$2] = users[$2] " " $1; next }
     { used = 0; n = split(users[$3], fs, " ")
       for (i = 1; i <= n; i++) if (fs[i] != $1) used = 1
       print $2, used }' "$work/uses" "$work/vals" >"$work/status"

status=0
unused=$(awk '$2 == 0 { print $1 }' "$work/status" | sort -u |
  comm -23 - "$work/allowed")
if [ -n "$unused" ]; then
  echo "Exported values with no caller outside their module:"
  printf '%s\n' "$unused" | sed 's/^/  /'
  status=1
fi
stale=$(awk '$2 == 0 { print $1 }' "$work/status" | sort -u |
  comm -13 - "$work/allowed")
if [ -n "$stale" ]; then
  echo "Allowlist entries that are no longer unused exports (remove them):"
  printf '%s\n' "$stale" | sed 's/^/  /'
  [ "$status" -ne 0 ] || status=2
fi
exit "$status"
