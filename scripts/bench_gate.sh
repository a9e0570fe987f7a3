#!/usr/bin/env bash
# Counter-baseline gate for the BENCH trajectory.
#
#     scripts/bench_gate.sh [--regen] [build-dir]
#
# Re-runs the pinned-seed benchmark configurations below and diffs the fresh
# BENCH files against the checked-in baselines under bench/baselines/ with
# `benchstat diff`.  The diff's hard gate is exact equality on every counter
# that both files' BENCH provenance lists under deterministic_counters (all
# counters obs/counters.def does not mark scheduling-dependent): those are
# bit-exact for a pinned seed at --threads=1 on any machine, so a mismatch
# means the algorithms did different work — a real behavioural change, not
# noise.  Wall-clock columns are reported but never gated here (no
# --ms-gate): a 1-CPU CI container is not a timing environment.
#
# After an *intentional* change to the partitioning work (new pruning rule,
# different probe order, ...), regenerate and commit the baselines; --regen
# rewrites only the files whose diff fails or reports a new record, and when
# a diff fails only on records the bench no longer produces it deletes just
# those record lines, leaving every other line byte-identical:
#
#     scripts/bench_gate.sh --regen
#     git add bench/baselines/ && git commit
#
# The optional build-dir argument points the gate at another build tree.
# Tier-1 uses this to diff the scalar-fallback build (-DRECTPART_SIMD=0)
# against baselines generated on the SIMD build: exact counter equality
# across the two proves the SIMD data plane does the same algorithmic work
# (simd_lanes_used / simd_fallback_hits are declared scheduling-dependent
# precisely so they stay out of this gate):
#
#     scripts/bench_gate.sh build-scalar
set -euo pipefail

regen=0
build=build
for arg in "$@"; do
  case "$arg" in
    --regen) regen=1 ;;
    -h|--help)
      sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *) build=$arg ;;
  esac
done

root=$(cd "$(dirname "$0")/.." && pwd)
benchstat=$root/$build/tools/benchstat
baselines=$root/bench/baselines
for bin in "$benchstat" "$root/$build/bench/micro_core" \
           "$root/$build/bench/micro_oned" \
           "$root/$build/bench/micro_service" \
           "$root/$build/bench/micro_sparse" \
           "$root/$build/bench/fig06_runtime"; do
  if [[ ! -x "$bin" ]]; then
    echo "bench_gate: missing $bin (build first: cmake --build $build -j)" >&2
    exit 2
  fi
done

# Pinned-seed, single-thread configurations.  --threads=1 also sidesteps the
# opt-engine exemption: jag-m-opt / jag-pq-opt size their candidate sets by
# num_threads(), so only a pinned width yields comparable counters.
run_micro_core() {
  "$root/$build/bench/micro_core" --n=256 --m=64 --reps=2 --seed=1 \
    --threads=1 >/dev/null
}
run_micro_oned() {
  "$root/$build/bench/micro_oned" --reps=2 --threads=1 >/dev/null
}
run_fig06_runtime() {
  "$root/$build/bench/fig06_runtime" --n=128 --m-opt-cap=256 --threads=1 \
    >/dev/null
}
# The daemon's request accounting (service_requests, service_cache_hits) is
# deterministic for a pinned request script; wall-clock percentiles are
# reported but, as everywhere here, never gated.
run_micro_service() {
  "$root/$build/bench/micro_service" --n=64 --m=8 --reps=3 --requests=16 \
    --threads=1 >/dev/null
}
# The CSR substrate's own counters (sparse_rows_touched, csc_mirror_builds,
# tile_prefix_hits, tile_fringe_rows) are scheduling-independent, so the
# sparse data plane is gated exactly like the dense one.
run_micro_sparse() {
  "$root/$build/bench/micro_sparse" --n=1024 --nnz=32768 --m=32 --reps=2 \
    --seed=1 --threads=1 >/dev/null
}

# drop_records BASELINE KEYS-FILE: deletes the record lines whose benchstat
# key (algorithm|instance|m=M|t=T) is listed in KEYS-FILE and strips the
# trailing comma the new last record inherits; every other line is kept
# byte for byte.  BenchJson writes one record per line, fields in this order.
drop_records() {
  awk -v keys="$2" '
    BEGIN { while ((getline k < keys) > 0) drop[k] = 1 }
    /^    \{"algorithm": / {
      split($0, q, "\"")
      m = q[11]; t = q[13]
      gsub(/[^0-9]/, "", m); gsub(/[^0-9]/, "", t)
      if ((q[4] "|" q[8] "|m=" m "|t=" t) in drop) next
    }
    /^  \]/ { sub(/,$/, "", held) }
    { if (n++) print held; held = $0 }
    END { if (n) print held }
  ' "$1" >"$1.tmp" && mv "$1.tmp" "$1"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0
for name in micro_core micro_oned fig06_runtime micro_service micro_sparse; do
  (cd "$tmp" && "run_$name")
  fresh=$tmp/BENCH_$name.json
  base=$baselines/BENCH_$name.json
  if [[ $regen -eq 1 ]]; then
    # Rewrite only a baseline whose gate fails or that lacks a record, so a
    # regeneration leaves the wall-clock fields of undrifted benches alone.
    diff_out=
    if [[ -f "$base" ]] && diff_out=$("$benchstat" diff "$base" "$fresh") &&
       ! grep -q '^# new record' <<<"$diff_out"; then
      echo "bench_gate: $name unchanged"
    elif grep -q '^MISSING RECORD' <<<"$diff_out" &&
         ! grep -Eq '^(COUNTER DRIFT|# new record)' <<<"$diff_out"; then
      sed -n 's/^MISSING RECORD \(.*\) (in baseline, not in current)$/\1/p' \
        <<<"$diff_out" >"$tmp/missing"
      drop_records "$base" "$tmp/missing"
      echo "bench_gate: dropped $(wc -l <"$tmp/missing") record(s) from $base"
    else
      cp "$fresh" "$base"
      echo "bench_gate: regenerated $base"
    fi
  elif [[ ! -f "$base" ]]; then
    echo "bench_gate: no baseline $base (run with --regen to create)" >&2
    status=1
  else
    echo "== bench_gate: $name =="
    "$benchstat" diff "$base" "$fresh" || status=1
  fi
done
exit $status
