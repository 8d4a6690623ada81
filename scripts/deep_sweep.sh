#!/usr/bin/env bash
# Run one test suite at every QCheck seed of a range and print one line
# per failing seed: the seed, the case QCheck reports and the outcome
# (the failing tests, or the timeout, then the report lines of the
# differential suites' equivalence oracle, test/oracle.ml, each starting
# "oracle:"). Passing seeds print nothing; a summary with the elapsed
# time goes to stderr. Each run gets 120 s.
#
#   dune build && scripts/deep_sweep.sh recovery 360 700
#
# Run from the repository root. This is a tool for sweeping deeper than
# CI's seeds, not a CI step: it exits 1 when any seed failed.
set -u

if [ $# -ne 3 ]; then
  echo "usage: $0 SUITE FROM TO" >&2
  exit 2
fi
suite=$1 from=$2 to=$3
exe=_build/default/test/test_$suite.exe
if [ ! -x "$exe" ]; then
  echo "$0: $exe is not built (run dune build from the repository root)" >&2
  exit 2
fi

log=$(mktemp)
trap 'rm -f "$log"' EXIT
start=$EPOCHREALTIME
runs=0 failed=0
for seed in $(seq "$from" "$to"); do
  runs=$((runs + 1))
  QCHECK_SEED=$seed timeout 120 "$exe" >"$log" 2>&1
  rc=$?
  [ "$rc" -eq 0 ] && continue
  failed=$((failed + 1))
  # QCheck names the case after "failed on ≥ 1 cases:", on the same
  # line or, when long, on the lines up to the next blank one, where the
  # oracle's report follows it; for an exception, on a line "on `...`".
  # Alcotest lists each failing test once with a leading "> [FAIL]".
  # Each oracle line is kept once, in the order it first appears.
  case_=$(awk '
    /failed on .* cases:/ { sub(/.*cases: ?/, ""); if ($0 == "") grab = 1; else print; next }
    grab && /^[[:space:]]*$/ { grab = 0; next }
    grab && /^[[:space:]]*oracle: / { next }
    grab { print; next }
    /^on `/ { sub(/^on `/, ""); sub(/`$/, ""); print }' "$log" | sort -u | paste -sd '|' -)
  tests=$(grep -E '^> \[FAIL\]' "$log" | sed -E 's/^> \[FAIL\] +//; s/ +/ /g' |
    paste -sd '|' -)
  report=$(sed -nE 's/^[[:space:]]*(oracle: )/\1/p' "$log" | awk '!seen[$0]++' |
    paste -sd '|' -)
  if [ "$rc" -eq 124 ]; then outcome="timeout after 120 s"
  else outcome="exit $rc: ${tests:-no failing test listed}"; fi
  [ -n "$report" ] && outcome="$outcome|$report"
  printf 'seed=%s case=%s outcome=%s\n' "$seed" "${case_:-?}" "$outcome"
done
awk -v s="$start" -v e="$EPOCHREALTIME" -v n="$runs" -v f="$failed" \
  -v suite="$suite" 'BEGIN {
    printf "test_%s: %d of %d seeds failed in %.0f s (%.2f s a seed)\n",
      suite, f, n, e - s, (e - s) / n > "/dev/stderr" }'
[ "$failed" -eq 0 ]
