#!/bin/sh
# Interleaved A/B run of the benchmark: the parent of HEAD against this
# checkout as it stands, on one perfbench workload or on all of them.
#
#   ./scripts/ab.sh --workload paper-cold
#   ./scripts/ab.sh --workload sim-steady --runs 10
#   ./scripts/ab.sh --workload reload-sim --parent-dir ../other-checkout
#   ./scripts/ab.sh --workload all
#
# The parent (HEAD~1) is checked out and built in a temporary git
# worktree (removed at exit) unless --parent-dir names an existing
# checkout to use instead. Pair i runs `perfbench/run.sh --workload W
# --seed i --seconds S --trace 0` once per side, with S the
# `run_seconds` BENCHMARK.json declares, alternating which side goes
# first, so slow drift of a shared host lands on both sides alike. For
# every end-to-end metric BENCHMARK.json declares, it prints each side's
# median and interquartile range, the change of the medians, and how
# many pairs moved in the metric's better direction; then, pair by
# pair, each run's pass count and peak_rss_mb (a run makes as many
# passes as fit in S seconds, and the peak grows with them); then each
# side's output digests and failed runs. Single-shot numbers on a shared
# host swing by ±20 %: compare medians of interleaved runs, never two
# lone runs.
#
# `--workload all` builds each side once, then runs the workloads
# BENCHMARK.json declares one after another, N pairs each, and prints
# one such report per workload: the report a gain claim needs, since a
# change must leave the workloads it does not target no worse.
#
# Options: --workload W|all (default paper-cold), --runs N pairs
# (default 10), --parent-dir DIR, --keep DIR (copy every run's stdout
# and stderr, <workload>/<side>.<pair>.out and .err, into DIR at exit).
set -eu
cd "$(dirname "$0")/.."
HEAD_DIR=$(pwd)

WORKLOAD=paper-cold
RUNS=10
PARENT_DIR=
KEEP_DIR=
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) WORKLOAD=$2; shift 2 ;;
    --runs) RUNS=$2; shift 2 ;;
    --parent-dir) PARENT_DIR=$2; shift 2 ;;
    --keep) KEEP_DIR=$2; shift 2 ;;
    *) echo "ab.sh: unknown argument $1 (see the header of $0)" >&2; exit 2 ;;
  esac
done
case "$RUNS" in
  ''|*[!0-9]*|0) echo "ab.sh: --runs expects a positive integer" >&2; exit 2 ;;
esac

TMP=$(mktemp -d)
WORKTREE=
cleanup() {
  if [ -n "$KEEP_DIR" ]; then
    for d in "$TMP"/runs/*; do
      [ -d "$d" ] || continue
      mkdir -p "$KEEP_DIR/$(basename "$d")"
      cp "$d"/* "$KEEP_DIR/$(basename "$d")/"
    done
  fi
  if [ -n "$WORKTREE" ]; then
    git worktree remove --force "$WORKTREE" 2>/dev/null || true
    git worktree prune
  fi
  rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

if [ -z "$PARENT_DIR" ]; then
  WORKTREE="$TMP/base"
  git worktree add --quiet --detach "$WORKTREE" HEAD~1
  PARENT_DIR=$WORKTREE
  BASE_LABEL=$(git rev-parse --short HEAD~1)
else
  PARENT_DIR=$(cd "$PARENT_DIR" && pwd)
  BASE_LABEL=$PARENT_DIR
fi
if [ ! -f "$PARENT_DIR/perfbench/run.sh" ]; then
  echo "ab.sh: $BASE_LABEL has no perfbench/run.sh to run" >&2
  exit 2
fi

# the per-run seconds the benchmark fixes, and its end-to-end metrics in
# declaration order as "<name> <better>" lines
SECONDS_PER_RUN=$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
if [ -z "$SECONDS_PER_RUN" ]; then
  echo "ab.sh: BENCHMARK.json declares no run_seconds" >&2
  exit 2
fi
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
  on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' \
  BENCHMARK.json > "$TMP/metrics"
# the workloads to run, one name a line
if [ "$WORKLOAD" = all ]; then
  awk '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); print $2 }' \
    BENCHMARK.json > "$TMP/workloads"
else
  echo "$WORKLOAD" > "$TMP/workloads"
fi
if [ ! -s "$TMP/workloads" ]; then
  echo "ab.sh: BENCHMARK.json declares no workloads" >&2
  exit 2
fi

echo "ab.sh: building both sides" >&2
for dir in "$PARENT_DIR" "$HEAD_DIR"; do
  (cd "$dir" && dune build --root . --cache=disabled ./perfbench/main.exe) >&2
done

# one run: its whole stdout in $RUNS_DIR/<side>.<i>.out, exit status appended
run_side() {
  side=$1 dir=$2 i=$3
  out="$RUNS_DIR/$side.$i.out"
  echo "ab.sh: $WORKLOAD pair $i/$RUNS $side" >&2
  if bash "$dir/perfbench/run.sh" --workload "$WORKLOAD" --seed "$i" \
      --seconds "$SECONDS_PER_RUN" --trace 0 > "$out" 2>"$RUNS_DIR/$side.$i.err"; then
    echo "exit 0" >> "$out"
  else
    echo "exit $?" >> "$out"
  fi
}

# value of metric $1 in run output $2 (empty when the run printed none)
metric() {
  tail -n 2 "$2" | head -n 1 \
    | sed -n "s/.*\"$1\": {\"value\": \([^,}]*\).*/\1/p"
}

# median, q1 and q3 of the numbers on stdin, one per line
quartiles() {
  sort -g | awk '{ v[NR] = $1 }
    function at(q,  r, lo) { r = 1 + q * (NR - 1); lo = int(r);
      return v[lo] + (r - lo) * (v[(lo + 1 < NR) ? lo + 1 : NR] - v[lo]) }
    END { if (NR == 0) print "nan nan nan";
          else printf "%.6g %.6g %.6g\n", at(0.5), at(0.25), at(0.75) }'
}

# the pass count a run's summary line reports ("..., N passes, ...")
passes() {
  sed -n 's/.*, \([0-9][0-9]*\) passes,.*/\1/p' "$1" | head -n 1
}

# the pairs of one workload, then its report
run_workload() {
  RUNS_DIR="$TMP/runs/$WORKLOAD"
  mkdir -p "$RUNS_DIR"
  i=1
  while [ "$i" -le "$RUNS" ]; do
    if [ $((i % 2)) -eq 1 ]; then
      run_side base "$PARENT_DIR" "$i"; run_side head "$HEAD_DIR" "$i"
    else
      run_side head "$HEAD_DIR" "$i"; run_side base "$PARENT_DIR" "$i"
    fi
    i=$((i + 1))
  done

  echo
  echo "workload $WORKLOAD, $RUNS interleaved pairs of ${SECONDS_PER_RUN} s runs; base $BASE_LABEL, head $HEAD_DIR"
  printf '%-14s %12s %21s %12s %21s %9s %6s\n' metric "base median" "base [q1, q3]" \
    "head median" "head [q1, q3]" "change" better
  while read -r name better; do
    for side in base head; do
      i=1
      while [ "$i" -le "$RUNS" ]; do
        metric "$name" "$RUNS_DIR/$side.$i.out"
        i=$((i + 1))
      done > "$TMP/$side.values"
    done
    read -r bm b1 b3 <<EOF_Q
$(quartiles < "$TMP/base.values")
EOF_Q
    read -r hm h1 h3 <<EOF_Q
$(quartiles < "$TMP/head.values")
EOF_Q
    wins=$(paste "$TMP/base.values" "$TMP/head.values" | awk -v dir="$better" '
      NF == 2 { if (dir == "lower" ? $2 < $1 : $2 > $1) w++ } END { print w + 0 }')
    change=$(awk -v b="$bm" -v h="$hm" 'BEGIN {
      if (b == 0 || b == "nan") print "n/a"; else printf "%+.1f%%", 100 * (h - b) / b }')
    printf '%-14s %12s %21s %12s %21s %9s %3s/%s\n' "$name" "$bm" "[$b1, $b3]" \
      "$hm" "[$h1, $h3]" "$change" "$wins" "$RUNS"
  done < "$TMP/metrics"

  echo
  printf '%-5s %12s %15s %12s %15s\n' pair "base passes" "base peak MB" \
    "head passes" "head peak MB"
  i=1
  while [ "$i" -le "$RUNS" ]; do
    printf '%-5s %12s %15s %12s %15s\n' "$i" \
      "$(passes "$RUNS_DIR/base.$i.out")" "$(metric peak_rss_mb "$RUNS_DIR/base.$i.out")" \
      "$(passes "$RUNS_DIR/head.$i.out")" "$(metric peak_rss_mb "$RUNS_DIR/head.$i.out")"
    i=$((i + 1))
  done

  echo
  for side in base head; do
    digests=$(cat "$RUNS_DIR"/$side.*.out | sed -n 's/.*: digest \([0-9a-f]*\) .*/\1/p' | sort -u | tr '\n' ' ')
    failed=$(grep -L '^exit 0$' "$RUNS_DIR"/$side.*.out | wc -l)
    incorrect=$(grep -l '"correct": false' "$RUNS_DIR"/$side.*.out | wc -l)
    echo "$side: digests ${digests:-none}; $failed failed runs, $incorrect incorrect"
  done
}

for WORKLOAD in $(cat "$TMP/workloads"); do
  run_workload
done
