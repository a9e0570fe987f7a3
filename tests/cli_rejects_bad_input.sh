#!/bin/sh
# rectpart_cli turns bad input into one stderr line naming it and exit 2:
# a negative cell in a text matrix, a malformed COO entry, an unknown engine.
#
#     tests/cli_rejects_bad_input.sh path/to/rectpart_cli
set -u
cli=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0

# expect_rejected WHAT STDERR-SUBSTRING CLI-ARGS...
expect_rejected() {
  what=$1
  want=$2
  shift 2
  "$cli" "$@" >/dev/null 2>"$dir/err"
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL $what: exit $code, want 2"
    status=1
  elif ! grep -qF -- "$want" "$dir/err"; then
    echo "FAIL $what: stderr does not name '$want':"
    cat "$dir/err"
    status=1
  else
    echo "ok   $what: $(cat "$dir/err")"
  fi
}

printf '2 2\n1 2\n-3 4\n' >"$dir/neg.txt"
expect_rejected "negative cell" "cell (1, 0) has negative load -3" \
  --input="$dir/neg.txt" --m=2
printf '4 4 2\n0 0 5\n1 x 2\n' >"$dir/bad.coo"
expect_rejected "bad COO entry" "COO body at entry 1" \
  --input="$dir/bad.coo" --format=coo --m=2
expect_rejected "unknown engine" "unknown partitioner 'nope'" \
  --family=peak --n=16 --m=2 --algo=nope
exit $status
