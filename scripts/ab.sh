#!/bin/sh
# Interleaved A/B run of the benchmark: the parent of HEAD against this
# checkout as it stands, on one perfbench workload or on all of them.
#
#   ./scripts/ab.sh --workload paper-cold
#   ./scripts/ab.sh --workload sim-steady --runs 10
#   ./scripts/ab.sh --workload reload-sim --parent-dir ../other-checkout
#   ./scripts/ab.sh --workload all
#   ./scripts/ab.sh --workload sim-steady --runs 9 --layouts 3
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
# `--layouts K` (K > 1) measures the noise that code placement alone
# makes. Each side is copied K times into the temporary directory and
# each copy is built; copy k differs from the checkout only by a
# generated library, placed just ahead of hc_isa's code and never
# called, of k functions of 16 bytes of code each, so hc_isa and all
# code after it move (by 48 bytes a function with the start-up code
# that binds it; the build log prints the shift it measured). Pair i
# runs layout i mod K on both sides. Next to each metric the report
# prints the spread of the parent's per-layout medians (largest minus
# smallest, in % of its median): a change of the medians inside that
# spread is one that moving code alone can make. Nothing is written to
# either checkout.
#
# Options: --workload W|all (default paper-cold), --runs N pairs
# (default 10), --layouts K (default 1, at most N), --parent-dir DIR,
# --keep DIR (copy every run's stdout and stderr,
# <workload>/<side>.<pair>.out and .err, into DIR at exit).
set -eu
cd "$(dirname "$0")/.."
HEAD_DIR=$(pwd)

WORKLOAD=paper-cold
RUNS=10
LAYOUTS=1
PARENT_DIR=
KEEP_DIR=
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) WORKLOAD=$2; shift 2 ;;
    --runs) RUNS=$2; shift 2 ;;
    --layouts) LAYOUTS=$2; shift 2 ;;
    --parent-dir) PARENT_DIR=$2; shift 2 ;;
    --keep) KEEP_DIR=$2; shift 2 ;;
    *) echo "ab.sh: unknown argument $1 (see the header of $0)" >&2; exit 2 ;;
  esac
done
case "$RUNS" in
  ''|*[!0-9]*|0) echo "ab.sh: --runs expects a positive integer" >&2; exit 2 ;;
esac
case "$LAYOUTS" in
  ''|*[!0-9]*|0) echo "ab.sh: --layouts expects a positive integer" >&2; exit 2 ;;
esac
if [ "$LAYOUTS" -gt "$RUNS" ]; then
  echo "ab.sh: --layouts $LAYOUTS needs at least $LAYOUTS pairs (--runs)" >&2
  exit 2
fi

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

# the checkout of side $1 (base or head)
side_src() {
  if [ "$1" = base ]; then echo "$PARENT_DIR"; else echo "$HEAD_DIR"; fi
}

# Make copy $1 of a checkout layout $2: a library hc_pad of $2 functions
# of 16 bytes of code each, forced into the link by -linkall. Every other
# library that names hc_isa names hc_pad right after it, so hc_pad links
# just after hc_isa, and ocamlopt, which lays code out in the reverse of
# link order, places it just ahead of hc_isa's code.
pad_layout() {
  mkdir -p "$1/lib/pad"
  printf '(library\n (name hc_pad)\n (libraries hc_isa)\n (library_flags (-linkall)))\n' \
    > "$1/lib/pad/dune"
  awk -v k="$2" 'BEGIN { print "(* code placement padding, never called *)"
    for (j = 0; j < k; j++) printf "let pad%d x = x + %d\n", j, j + 1 }' \
    > "$1/lib/pad/hc_pad.ml"
  for f in "$1"/lib/*/dune; do
    case "$f" in */lib/isa/dune|*/lib/pad/dune) continue ;; esac
    sed 's/\([( ]\)hc_isa\([ )]\)/\1hc_isa hc_pad\2/' "$f" > "$f.padded"
    mv "$f.padded" "$f"
  done
}

# the address of hc_isa's first code in the benchmark binary under $1
isa_code() {
  nm -n "$1/_build/default/perfbench/main.exe" \
    | awk '$2 == "T" && $3 ~ /^camlHc_isa.*code_begin$/ { print $1; exit }'
}

if [ "$LAYOUTS" -eq 1 ]; then
  echo "ab.sh: building both sides" >&2
  for dir in "$PARENT_DIR" "$HEAD_DIR"; do
    (cd "$dir" && dune build --root . --cache=disabled ./perfbench/main.exe) >&2
  done
else
  for side in base head; do
    k=0
    while [ "$k" -lt "$LAYOUTS" ]; do
      dst="$TMP/layouts/$side.$k"
      echo "ab.sh: building $side layout $k" >&2
      mkdir -p "$dst"
      (cd "$(side_src "$side")" \
        && tar --exclude=./_build --exclude=./_hc_cache --exclude=./.git -cf - .) \
        | tar -xf - -C "$dst"
      pad_layout "$dst" "$k"
      (cd "$dst" && dune build --root . --cache=disabled ./perfbench/main.exe) >&2
      at=$(isa_code "$dst")
      if [ "$k" -eq 0 ]; then at0=$at; fi
      if [ -n "$at" ] && [ -n "$at0" ]; then
        echo "ab.sh: $side layout $k: hc_isa code moved by $((0x$at - 0x$at0)) bytes" >&2
      else
        echo "ab.sh: $side layout $k: no hc_isa symbol to measure the shift by" >&2
      fi
      k=$((k + 1))
    done
  done
fi

# the directory side $1 runs pair $2 from
side_dir() {
  if [ "$LAYOUTS" -eq 1 ]; then side_src "$1"
  else echo "$TMP/layouts/$1.$(($2 % LAYOUTS))"; fi
}

# one run: its whole stdout in $RUNS_DIR/<side>.<i>.out, exit status appended
run_side() {
  side=$1 i=$2
  dir=$(side_dir "$side" "$i")
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

# The spread of the per-layout medians of the values on stdin (pair i's
# on line i), in % of median $1: pair i ran layout i mod LAYOUTS
layout_spread() {
  awk '{ print NR % '"$LAYOUTS"', $1 }' > "$TMP/by_layout"
  l=0
  while [ "$l" -lt "$LAYOUTS" ]; do
    awk -v l="$l" '$1 == l { print $2 }' "$TMP/by_layout" | quartiles | cut -d' ' -f1
    l=$((l + 1))
  done | sort -g | awk -v m="$1" '{ v[NR] = $1 }
    END { if (m == 0 || m == "nan" || NR == 0) print "n/a"
          else printf "%.1f%%\n", 100 * (v[NR] - v[1]) / m }'
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
      run_side base "$i"; run_side head "$i"
    else
      run_side head "$i"; run_side base "$i"
    fi
    i=$((i + 1))
  done

  echo
  echo "workload $WORKLOAD, $RUNS interleaved pairs of ${SECONDS_PER_RUN} s runs; base $BASE_LABEL, head $HEAD_DIR"
  [ "$LAYOUTS" -eq 1 ] || echo "pair i ran layout i mod $LAYOUTS on both sides"
  printf '%-14s %12s %21s %12s %21s %9s %6s' metric "base median" "base [q1, q3]" \
    "head median" "head [q1, q3]" "change" better
  [ "$LAYOUTS" -eq 1 ] && echo || printf ' %14s\n' "layout spread"
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
    printf '%-14s %12s %21s %12s %21s %9s %3s/%s' "$name" "$bm" "[$b1, $b3]" \
      "$hm" "[$h1, $h3]" "$change" "$wins" "$RUNS"
    if [ "$LAYOUTS" -eq 1 ]; then echo
    else printf ' %14s\n' "$(layout_spread "$bm" < "$TMP/base.values")"; fi
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
