#!/bin/sh
# Runs figure benches at default scale and fails on any "# reproduced: NO",
# naming the figure and the claim it printed.  A bench that exits non-zero
# or prints no verdict fails too.
#
#     tests/figure_verdicts.sh path/to/bench-dir fig07_jagged_picmag_m ...
set -u
bench=$1
shift
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0

for fig in "$@"; do
  start=$(date +%s)
  (cd "$dir" && RECTPART_BENCH_JSON=0 "$bench/$fig") >"$dir/out" 2>&1
  code=$?
  secs=$(($(date +%s) - start))
  claim=$(sed -n 's/^# paper shape: //p' "$dir/out")
  if [ "$code" -ne 0 ]; then
    echo "FAIL $fig: exit $code"
    tail -n 5 "$dir/out"
    status=1
  elif ! grep -q '^# reproduced: ' "$dir/out"; then
    echo "FAIL $fig: printed no '# reproduced:' line"
    status=1
  elif grep -v '^# reproduced: YES' "$dir/out" | grep -q '^# reproduced: '; then
    echo "FAIL $fig: not reproduced: $claim"
    cat "$dir/out"
    status=1
  else
    echo "ok   $fig (${secs} s): $claim"
  fi
done
exit $status
