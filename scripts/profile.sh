#!/bin/sh
# Sampling profile of one command, by function:
#
#   ./scripts/profile.sh [--top N] [--period-us U] [--raw FILE] -- CMD [ARG...]
#
# Builds scripts/profile_sampler.c with cc into a temporary directory and
# runs CMD under it: the main thread's instruction pointer is sampled
# every U microseconds (default 100) of its own CPU time through
# perf_event_open's task clock, user space only, so neither perf nor
# root is needed (perf_event_paranoid <= 2). The samples are then
# resolved to the enclosing symbol with nm, per mapped file, and the top
# N functions (default 25) are printed with their share of all samples.
# A shared object without a symbol table counts as its file name. CMD's
# standard output and error pass through; the report goes to standard
# error after it, headed by the sample and lost counts; the script exits
# with CMD's status. --raw keeps the sampler's per-address counts.
#
# Only the main thread is sampled: run multi-domain commands at one job
# (`hc_sim --jobs 1`, perfbench runs at jobs 1 anyway).
set -eu

TOP=25
PERIOD_US=100
RAW_OUT=
while [ $# -gt 0 ]; do
  case "$1" in
    --top) TOP=$2; shift 2 ;;
    --period-us) PERIOD_US=$2; shift 2 ;;
    --raw) RAW_OUT=$2; shift 2 ;;
    --) shift; break ;;
    *) echo "profile.sh: unknown argument $1 (see the header of $0)" >&2; exit 2 ;;
  esac
done
if [ $# -eq 0 ]; then
  echo "profile.sh: no command given after --" >&2
  exit 2
fi
for n in "$TOP" "$PERIOD_US"; do
  case "$n" in
    ''|*[!0-9]*|0) echo "profile.sh: --top and --period-us expect positive integers" >&2; exit 2 ;;
  esac
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
cc -O2 -o "$TMP/sampler" "$(dirname "$0")/profile_sampler.c"

status=0
"$TMP/sampler" $((PERIOD_US * 1000)) "$TMP/raw" "$@" || status=$?
if [ ! -s "$TMP/raw" ]; then
  echo "profile.sh: the sampler wrote no samples (exit $status)" >&2
  exit "$status"
fi
[ -z "$RAW_OUT" ] || cp "$TMP/raw" "$RAW_OUT"

# raw lines: COUNT PATH VADDR | COUNT ? IP | # samples N lost M
# one report line per (symbol, file): COUNT SYMBOL FILE
: > "$TMP/by_symbol"
awk '$1 != "#" && $2 != "?" && $NF != "-" {
       print substr($0, length($1) + 2, length($0) - length($1) - length($NF) - 2)
     }' "$TMP/raw" | sort -u > "$TMP/paths"
while IFS= read -r path; do
  base=$(basename "$path")
  # symbols as "ADDR 0 NAME", samples as "ADDR 1 COUNT"; in address
  # order each sample falls to the nearest symbol at or below it
  {
    { nm -n --defined-only "$path" 2>/dev/null || true; } |
      awk 'NF == 3 && $2 ~ /^[tTwW]$/ && $3 !~ /code_(begin|end)$/ { print $1, 0, $3 }'
    awk -v p="$path" '$1 != "#" && $NF != "-" &&
      substr($0, length($1) + 2, length($0) - length($1) - length($NF) - 2) == p {
        print $NF, 1, $1 }' "$TMP/raw"
  } | sort -k1,1 -k2,2n |
    awk -v base="$base" '
      $2 == 0 { sym = $3; next }
      { n[sym == "" ? "[" base "]" : sym] += $3 }
      END { for (s in n) print n[s], s, base }' >> "$TMP/by_symbol"
done < "$TMP/paths"
awk '$1 != "#" && ($2 == "?" || $NF == "-") {
       n[$2 == "?" ? "[unmapped]" : $2] += $1 }
     END { for (s in n) print n[s], s, "-" }' "$TMP/raw" >> "$TMP/by_symbol"

{
  sed -n 's/^# \(samples [0-9]* lost [0-9]*\)$/profile: \1, every '"$PERIOD_US"' us of CPU time/p' "$TMP/raw"
  total=$(sed -n 's/^# samples \([0-9]*\) .*/\1/p' "$TMP/raw")
  sort -k1,1nr "$TMP/by_symbol" | head -n "$TOP" |
    awk -v t="$total" '{ printf "%6.2f%% %8d  %s  (%s)\n", (t > 0 ? 100 * $1 / t : 0), $1, $2, $3 }'
} >&2
exit "$status"
