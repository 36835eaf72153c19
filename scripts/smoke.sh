#!/bin/sh
# CI smoke: build, run the full test suite, run each perfbench workload
# for a second (every output checked), then the CLI and artifact gates.
#
#   ./scripts/smoke.sh            # default pool size (HC_JOBS honoured)
#   HC_JOBS=4 ./scripts/smoke.sh
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build @all

echo "== build profile gate =="
# dune-workspace makes release the default profile, so no library
# compiles -opaque and small functions inline across modules. Its flags
# must stay dev's exact warning set (the lint is never loosened), its
# ocamlopt_flags must raise the inline threshold (-inline N: without
# flambda, ocamlopt inlines only bodies under its default of 10), and no
# object of the simulator (hc_sim), of the uop columns (hc_isa) or of
# anything they link may compile -opaque.
DEV_FLAGS='(flags
 (-w
  @1..3@5..28@30..39@43@46..47@49..57@61..62-40
  -strict-sequence
  -strict-formats
  -short-paths
  -keep-locs))'
FLAGS=$(dune printenv . | sed -n '/^(flags/,/))$/p')
if [ "$FLAGS" != "$DEV_FLAGS" ]; then
  echo "FAIL: the default profile's flags are not dev's warning set:"
  echo "$FLAGS"
  exit 1
fi
# the -inline N in a profile's ocamlopt_flags (dune printenv's
# "(ocamlopt_flags\n (...))"), empty when there is none
inline_flag() {
  dune printenv "$@" . | tr '\n' ' ' \
    | sed -n 's/.*(ocamlopt_flags *(\([^)]*\)).*/\1/p' \
    | grep -Eo -- '-inline [0-9]+' || true
}
INLINE=$(inline_flag)
if [ -z "$INLINE" ]; then
  echo "FAIL: the default profile's ocamlopt_flags have no -inline N:"
  dune printenv . | sed -n '/^(ocamlopt_flags/,/)$/p'
  exit 1
fi
# ...and prove the -inline check can fail: dev's profile lacks the flag
if [ -n "$(inline_flag --profile dev)" ]; then
  echo "FAIL: the -inline check found a threshold under --profile dev"
  exit 1
fi
SIM_LIBS="lib/sim/hc_sim.cmxa lib/isa/hc_isa.cmxa"
# shellcheck disable=SC2086
if dune rules -r $SIM_LIBS | grep -q -- '-opaque'; then
  echo "FAIL: an hc_sim or hc_isa object compiles -opaque"
  exit 1
fi
# ...and prove the -opaque check can fail: dev's profile turns it on
# shellcheck disable=SC2086
if ! dune rules --profile dev -r $SIM_LIBS | grep -q -- '-opaque'; then
  echo "FAIL: the -opaque check found nothing under --profile dev"
  exit 1
fi
echo "build profile gate OK ($INLINE)"

echo "== dune runtest =="
# includes the per-uop allocation gates (test/test_alloc.ml): a warm
# 8_8_8 run, a warm +IR run with cycle accounting, and an HCTB decode
# plus its first run at exactly 0 minor words/uop, the static width
# analysis at <= 8, sliced trace generation at <= 1, and Rng.bool/Rng.int
# at exactly 0 words per draw
dune runtest

SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "== perfbench brief runs =="
# One second of each benchmark workload. perfbench checks every output it
# times, so the last line of each run must read "correct": true with no
# failed operation, and paper-cold must reproduce the known digest of the
# experiments' output.
PAPER_COLD_DIGEST=51c0abea694f0a2f61ee56e21fed673f
perfbench_ok() {
  grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0, "metrics": {' "$1"
}
for w in paper-cold sim-steady reload-sim trace-ingest; do
  status=0
  bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 \
    > "$SMOKE_DIR/perfbench_$w.out" || status=$?
  tail -n 1 "$SMOKE_DIR/perfbench_$w.out" > "$SMOKE_DIR/perfbench_$w.json"
  if [ "$status" -ne 0 ] || ! perfbench_ok "$SMOKE_DIR/perfbench_$w.json"; then
    cat "$SMOKE_DIR/perfbench_$w.out"
    echo "FAIL: perfbench $w (exit $status) did not end with a correct result"
    exit 1
  fi
done
if ! grep -q "^perfbench paper-cold: digest $PAPER_COLD_DIGEST " \
    "$SMOKE_DIR/perfbench_paper-cold.out"; then
  grep 'digest' "$SMOKE_DIR/perfbench_paper-cold.out"
  echo "FAIL: paper-cold's output digest is not $PAPER_COLD_DIGEST"
  exit 1
fi
# ...and prove the result check can fail: a run that reports itself wrong
sed 's/"correct": true/"correct": false/' "$SMOKE_DIR/perfbench_sim-steady.json" \
  > "$SMOKE_DIR/wrong_result.json"
if perfbench_ok "$SMOKE_DIR/wrong_result.json"; then
  echo "FAIL: the perfbench result check accepted \"correct\": false"
  exit 1
fi
echo "perfbench OK"

echo "== CLI argument gate =="
# a non-positive pool size is an error (exit 1), not a silent fallback
for cmd in "hc_sim.exe -- --jobs 0 --length 100" \
    "hc_experiments.exe -- --jobs 0 --length 100 fig6"; do
  status=0
  dune exec bin/$cmd > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 1 ]; then
    echo "FAIL: bin/$cmd exited $status, expected 1"
    exit 1
  fi
done
echo "CLI argument gate OK"

echo "== telemetry: trace + interval series =="
# A small traced run: Chrome trace JSON + interval CSV, then validate
# every JSON artifact with hc_report's strict reader. The CLI itself
# asserts aggregate(intervals) == final metrics (prints "==" vs "BUG").
dune exec bin/hc_sim.exe -- --benchmark gcc --scheme +IR --length 5000 \
  --trace-out "$SMOKE_DIR/smoke_trace.json" --metrics-interval 500 \
  | tee "$SMOKE_DIR/smoke_out.txt"
grep -q 'aggregate == final metrics' "$SMOKE_DIR/smoke_out.txt"
dune exec bin/hc_report.exe -- validate "$SMOKE_DIR/smoke_trace.json" \
  "$SMOKE_DIR"/perfbench_*.json
test -s "$SMOKE_DIR/smoke_trace.intervals.csv"
# ...and prove the JSON check can fail: a Chrome trace cut mid-array
head -c 2000 "$SMOKE_DIR/smoke_trace.json" > "$SMOKE_DIR/smoke_trace_cut.json"
if dune exec bin/hc_report.exe -- validate "$SMOKE_DIR/smoke_trace_cut.json" \
    > /dev/null 2>&1; then
  echo "FAIL: validate --json accepted a truncated Chrome trace"
  exit 1
fi
echo "telemetry OK"

echo "== hc_report regression gate =="
# Re-run each baseline workload and hold the fresh metrics to its
# committed baseline: the simulator is deterministic, so the default
# 0-tolerance diff is a bit-exact gate (refresh deliberately with
# scripts/refresh_baseline.sh when the model changes). gcc under +IR
# exercises the helper cluster; mcf under baseline is the most idle
# profile, so the event horizon jumps over most of its ticks.
for cell in "gcc +IR" "mcf baseline"; do
  bench=${cell% *}
  scheme=${cell#* }
  dune exec bin/hc_sim.exe -- --benchmark "$bench" --scheme "$scheme" \
    --length 5000 --compare false \
    --metrics-out "$SMOKE_DIR/${bench}_smoke.json" > /dev/null
  dune exec bin/hc_report.exe -- diff "baselines/${bench}_smoke.json" \
    "$SMOKE_DIR/${bench}_smoke.json"
  # ...and prove the gate can fail: perturb one metric and expect exit 1
  sed -E 's/"ipc":[0-9.]+/"ipc":0.0001/' "$SMOKE_DIR/${bench}_smoke.json" \
    > "$SMOKE_DIR/${bench}_perturbed.json"
  if dune exec bin/hc_report.exe -- diff "baselines/${bench}_smoke.json" \
      "$SMOKE_DIR/${bench}_perturbed.json" > /dev/null; then
    echo "FAIL: hc_report diff accepted a perturbed $bench metrics file"
    exit 1
  fi
done
dune exec bin/hc_report.exe -- report "$SMOKE_DIR/gcc_smoke.json" \
  --intervals "$SMOKE_DIR/smoke_trace.intervals.csv" \
  --trace "$SMOKE_DIR/smoke_trace.json"
echo "regression gate OK"

echo "== hc_lint gate =="
# Every seed workload must lint clean (structure, semantics, realized-mix
# drift, and both width-analysis soundness invariants: E110 for the
# forward pass, E111 for the backward live-bits pass, W203 for bound
# monotonicity), as must every built-in configuration and a
# saved-and-reloaded trace file.
dune exec bin/hc_lint.exe -- seeds --length 10000
dune exec bin/hc_lint.exe -- config
dune exec bin/hc_trace.exe -- generate --benchmark gcc --length 6000 \
  --out "$SMOKE_DIR/lint_gcc.trace" > /dev/null
dune exec bin/hc_lint.exe -- trace "$SMOKE_DIR/lint_gcc.trace" --benchmark gcc
# ...and prove this gate can fail too: flip UL1-miss bits (violating miss
# monotonicity, E105) and expect a non-zero exit
sed 's/dl0=0 ul1=0/dl0=0 ul1=1/' "$SMOKE_DIR/lint_gcc.trace" \
  > "$SMOKE_DIR/lint_bad.trace"
if dune exec bin/hc_lint.exe -- trace "$SMOKE_DIR/lint_bad.trace" > /dev/null; then
  echo "FAIL: hc_lint accepted a corrupted trace"
  exit 1
fi
echo "lint gate OK"

echo "== bidirectional analysis gate =="
# The seeds lint above already held E110/E111 to zero violations across
# all 12 seed workloads; this gate covers the rest of the bidirectional
# surface. The diagnostic catalogue must explain every code the linter
# can emit (and exit 3 on an unknown code); the headroom experiment's
# three-way table must show zero width-violation recoveries for BOTH
# static oracles and perfect bidir>=forward monotonicity; and the
# regression diff must trip when a provable bound is perturbed. The
# regression gate above already proved the complement: a run that never
# touches the new scheme diffs bit-identically against the committed
# baseline.
for code in E101 E103 E104 E105 E106 E107 E108 E110 E111 \
    W201 E201 W202 W203; do
  dune exec bin/hc_lint.exe -- explain "$code" > /dev/null
done
if dune exec bin/hc_lint.exe -- explain E999 > /dev/null 2>&1; then
  echo "FAIL: hc_lint explain accepted an unknown code"
  exit 1
fi
dune exec bin/hc_lint.exe -- explain --readme-table | grep -q '| E111 |'
BIDIR_DIR="$SMOKE_DIR/bidir_telemetry"
dune exec bin/hc_experiments.exe -- headroom --length 3000 \
  --telemetry-dir "$BIDIR_DIR" | tee "$SMOKE_DIR/headroom_out.txt"
grep -Eq 'static_888 width-violation recoveries.*measured +0\.00' \
  "$SMOKE_DIR/headroom_out.txt"
grep -Eq 'static_bidir width-violation recoveries.*measured +0\.00' \
  "$SMOKE_DIR/headroom_out.txt"
grep -Eq 'bidir steers below forward \(monotonicity\).*measured +0\.00' \
  "$SMOKE_DIR/headroom_out.txt"
# runs that go through the run cache carry both provable bounds in their
# metrics JSON, and hc_report attrib renders the three-way comparison
BIDIR_JSON="$BIDIR_DIR/static_bidir__gcc.metrics.json"
grep -q '"static_narrow_bound"' "$BIDIR_JSON"
grep -q '"static_bidir_bound"' "$BIDIR_JSON"
dune exec bin/hc_report.exe -- attrib "$BIDIR_JSON" \
  | tee "$SMOKE_DIR/attrib_out.txt"
grep -q 'provable (bidir)' "$SMOKE_DIR/attrib_out.txt"
# ...and perturbing the bidirectional bound must trip the 0-tolerance diff
sed -E 's/"static_bidir_bound":[0-9]+/"static_bidir_bound":1/' \
  "$BIDIR_JSON" > "$SMOKE_DIR/bidir_bound_perturbed.json"
if dune exec bin/hc_report.exe -- diff "$BIDIR_JSON" \
    "$SMOKE_DIR/bidir_bound_perturbed.json" > /dev/null; then
  echo "FAIL: hc_report diff accepted a perturbed static_bidir_bound"
  exit 1
fi
echo "bidirectional analysis gate OK"

echo "== artifact cache gate =="
# Cold populate, then prove the warm path returns bit-identical metrics:
# the 0-tolerance hc_report diff between the cold and warm runs of the
# same cell must pass, every cache entry must verify, and a truncated
# entry must (a) trip hc_cache verify and (b) self-heal on the next run
# without changing a single metric.
CACHE_DIR="$SMOKE_DIR/cache"
dune exec bin/hc_sim.exe -- --benchmark mcf --scheme 8_8_8 --length 8000 \
  --compare false --cache-dir "$CACHE_DIR" \
  --metrics-out "$SMOKE_DIR/cache_cold.json" > /dev/null
dune exec bin/hc_sim.exe -- --benchmark mcf --scheme 8_8_8 --length 8000 \
  --compare false --cache-dir "$CACHE_DIR" \
  --metrics-out "$SMOKE_DIR/cache_warm.json" > /dev/null
dune exec bin/hc_report.exe -- diff "$SMOKE_DIR/cache_cold.json" \
  "$SMOKE_DIR/cache_warm.json"
dune exec bin/hc_cache.exe -- verify --cache-dir "$CACHE_DIR"
# truncate the published trace entry in place: verify must now fail...
for entry in "$CACHE_DIR"/traces/*.hct; do
  head -c 100 "$entry" > "$entry.cut" && mv "$entry.cut" "$entry"
done
if dune exec bin/hc_cache.exe -- verify --cache-dir "$CACHE_DIR" > /dev/null; then
  echo "FAIL: hc_cache verify accepted a truncated trace entry"
  exit 1
fi
# ...and the next run must self-heal around it, bit-identically
dune exec bin/hc_sim.exe -- --benchmark mcf --scheme 8_8_8 --length 8000 \
  --compare false --cache-dir "$CACHE_DIR" \
  --metrics-out "$SMOKE_DIR/cache_healed.json" > /dev/null
dune exec bin/hc_report.exe -- diff "$SMOKE_DIR/cache_cold.json" \
  "$SMOKE_DIR/cache_healed.json"
dune exec bin/hc_cache.exe -- verify --cache-dir "$CACHE_DIR"
dune exec bin/hc_cache.exe -- stats --cache-dir "$CACHE_DIR"
# machine-readable stats must be one well-formed JSON object
dune exec bin/hc_cache.exe -- stats --cache-dir "$CACHE_DIR" --json \
  > "$SMOKE_DIR/cache_stats.json"
dune exec bin/hc_report.exe -- validate "$SMOKE_DIR/cache_stats.json"
echo "cache gate OK"

echo "== warm bottleneck gate =="
# Every campaign cell carries its cycle-accounting totals, so bottleneck
# reads its stall breakdowns from the run cache: once a cold run has
# filled the cache, a warm rerun simulates nothing. Its output must be
# byte-identical, the cache must gain no run entry (hc_cache stats --json
# unchanged), and its registry dump must show run-cache hits and no
# simulation.
BN_DIR="$SMOKE_DIR/bottleneck_cache"
bottleneck_run() {
  dune exec bin/hc_experiments.exe -- bottleneck --length 3000 \
    --cache-dir "$BN_DIR" --prom-out "$SMOKE_DIR/bottleneck_$1.prom" \
    > "$SMOKE_DIR/bottleneck_$1.txt"
  dune exec bin/hc_cache.exe -- stats --cache-dir "$BN_DIR" --json \
    > "$SMOKE_DIR/bottleneck_$1.stats.json"
}
bottleneck_warm_ok() {
  cmp -s "$SMOKE_DIR/bottleneck_cold.txt" "$SMOKE_DIR/bottleneck_$1.txt" &&
    cmp -s "$SMOKE_DIR/bottleneck_cold.stats.json" \
      "$SMOKE_DIR/bottleneck_$1.stats.json" &&
    grep -q '^hc_cache_hits_total{kind="run"} 84$' \
      "$SMOKE_DIR/bottleneck_$1.prom" &&
    ! grep -q '^hc_sim_runs_total' "$SMOKE_DIR/bottleneck_$1.prom"
}
bottleneck_run cold
grep -q 'partition invariant: exact' "$SMOKE_DIR/bottleneck_cold.txt"
grep -q '"run_entries":84,' "$SMOKE_DIR/bottleneck_cold.stats.json"
bottleneck_run warm
bottleneck_warm_ok warm
# ...and prove the gate can fail: drop one run entry, and the rerun must
# simulate that cell again
rm "$(ls "$BN_DIR"/runs/*.json | head -n 1)"
bottleneck_run healed
if bottleneck_warm_ok healed; then
  echo "FAIL: the warm bottleneck gate missed a re-simulated cell"
  exit 1
fi
echo "warm bottleneck gate OK"

echo "== binary trace gate =="
# A binary trace must load and lint exactly like its text twin, and a
# truncated binary file must surface as lint error E108, not a crash.
dune exec bin/hc_trace.exe -- generate --benchmark gcc --length 6000 \
  --format binary --out "$SMOKE_DIR/lint_gcc.hct" > /dev/null
dune exec bin/hc_lint.exe -- trace "$SMOKE_DIR/lint_gcc.hct" --benchmark gcc
head -c 1000 "$SMOKE_DIR/lint_gcc.hct" > "$SMOKE_DIR/lint_cut.hct"
if dune exec bin/hc_lint.exe -- trace "$SMOKE_DIR/lint_cut.hct" \
    > "$SMOKE_DIR/lint_cut.out"; then
  echo "FAIL: hc_lint accepted a truncated binary trace"
  exit 1
fi
grep -q E108 "$SMOKE_DIR/lint_cut.out"
echo "binary trace gate OK"

echo "== saved-trace simulation gate =="
# hc_sim --trace must simulate a saved text or binary trace exactly as it
# simulates the same workload generated in process (byte-identical
# metrics JSON), and an unreadable trace (the truncated binary file
# above, a text file with a bad header) is one stderr line and exit 3,
# never an uncaught exception (125).
dune exec bin/hc_sim.exe -- -b gcc --length 6000 -s +IR --cache-dir none \
  --compare false --metrics-out "$SMOKE_DIR/saved_gen.json" > /dev/null
for fmt in text binary; do
  dune exec bin/hc_trace.exe -- generate --benchmark gcc --length 6000 \
    --cache-dir none --format "$fmt" --out "$SMOKE_DIR/saved_gcc.$fmt" \
    > /dev/null
  dune exec bin/hc_sim.exe -- --trace "$SMOKE_DIR/saved_gcc.$fmt" -s +IR \
    --compare false --metrics-out "$SMOKE_DIR/saved_$fmt.json" > /dev/null
  cmp "$SMOKE_DIR/saved_gen.json" "$SMOKE_DIR/saved_$fmt.json"
done
printf 'not a trace\n' > "$SMOKE_DIR/saved_bad.trace"
for bad in lint_cut.hct saved_bad.trace; do
  status=0
  dune exec bin/hc_sim.exe -- --trace "$SMOKE_DIR/$bad" > /dev/null \
    2> "$SMOKE_DIR/saved_err.txt" || status=$?
  if [ "$status" -ne 3 ] || [ "$(wc -l < "$SMOKE_DIR/saved_err.txt")" -ne 1 ]
  then
    echo "FAIL: hc_sim --trace $bad exited $status, expected 3 and one line:"
    cat "$SMOKE_DIR/saved_err.txt"
    exit 1
  fi
done
echo "saved-trace simulation gate OK"

echo "== observability gate =="
# A traced run with the full observability surface on: --obs stage-span
# stderr table, --span-log structured JSONL, --prom-out registry dump.
# Both sidecars must pass hc_report validate's strict checks AND the
# real readers (hc_report spans re-parses every line; hc_report diff
# re-parses the exposition) — then both checkers must provably trip on
# a corrupted file. Each run gets a fresh artifact cache, so what the
# dumps hold does not depend on what earlier runs left in _hc_cache.
dune exec bin/hc_sim.exe -- --benchmark gzip --scheme 8_8_8 --length 4000 \
  --compare false --cache-dir "$SMOKE_DIR/obs_sim_cache" --obs \
  --span-log "$SMOKE_DIR/obs_spans.jsonl" \
  --prom-out "$SMOKE_DIR/obs_sim.prom" > /dev/null
dune exec bin/hc_report.exe -- validate --jsonl "$SMOKE_DIR/obs_spans.jsonl"
dune exec bin/hc_report.exe -- validate --prom "$SMOKE_DIR/obs_sim.prom"
dune exec bin/hc_report.exe -- spans "$SMOKE_DIR/obs_spans.jsonl"
# the run counts itself: Pipeline.run records its registry series
if ! grep -q '^hc_sim_runs_total 1$' "$SMOKE_DIR/obs_sim.prom"; then
  echo "FAIL: obs_sim.prom has no hc_sim_runs_total 1 line"
  exit 1
fi
# ...and the work its issue stage did
if ! grep -Eq '^hc_issue_visits_total [1-9][0-9]*$' "$SMOKE_DIR/obs_sim.prom"
then
  echo "FAIL: obs_sim.prom has no non-zero hc_issue_visits_total line"
  exit 1
fi
# a registry diff is a gate: a dump against itself exits 0
dune exec bin/hc_report.exe -- diff "$SMOKE_DIR/obs_sim.prom" \
  "$SMOKE_DIR/obs_sim.prom" > /dev/null
# a traced sweep with the live progress line, then a per-series diff of
# the two registry dumps (also re-validates both expositions), which
# must exit 1: the sweep's run and cache counts are not the single run's
dune exec bin/hc_experiments.exe -- fig6 --length 3000 --progress \
  --cache-dir "$SMOKE_DIR/obs_fig6_cache" \
  --span-log "$SMOKE_DIR/obs_fig6.jsonl" \
  --prom-out "$SMOKE_DIR/obs_fig6.prom" > /dev/null
dune exec bin/hc_report.exe -- validate --jsonl "$SMOKE_DIR/obs_fig6.jsonl"
dune exec bin/hc_report.exe -- validate --prom "$SMOKE_DIR/obs_fig6.prom"
# on a fresh cache the sweep simulates its cells, so its dump counts runs
if ! grep -Eq '^hc_sim_runs_total [1-9][0-9]*$' "$SMOKE_DIR/obs_fig6.prom"
then
  echo "FAIL: obs_fig6.prom has no non-zero hc_sim_runs_total line"
  exit 1
fi
status=0
dune exec bin/hc_report.exe -- diff "$SMOKE_DIR/obs_sim.prom" \
  "$SMOKE_DIR/obs_fig6.prom" || status=$?
if [ "$status" -ne 1 ]; then
  echo "FAIL: hc_report diff of two different dumps exited $status, expected 1"
  exit 1
fi
# ...and prove both gates can fail: a span line truncated mid-object and
# an exposition sample with an illegal metric name must be rejected
head -c 40 "$SMOKE_DIR/obs_spans.jsonl" > "$SMOKE_DIR/obs_bad.jsonl"
if dune exec bin/hc_report.exe -- validate --jsonl "$SMOKE_DIR/obs_bad.jsonl" \
    > /dev/null 2>&1; then
  echo "FAIL: --jsonl accepted a truncated span-log line"
  exit 1
fi
{ cat "$SMOKE_DIR/obs_sim.prom"; echo '!bad name 1'; } \
  > "$SMOKE_DIR/obs_bad.prom"
if dune exec bin/hc_report.exe -- validate --prom "$SMOKE_DIR/obs_bad.prom" \
    > /dev/null 2>&1; then
  echo "FAIL: --prom accepted a malformed exposition line"
  exit 1
fi
status=0
dune exec bin/hc_report.exe -- diff "$SMOKE_DIR/obs_sim.prom" \
  "$SMOKE_DIR/obs_bad.prom" > /dev/null 2>&1 || status=$?
if [ "$status" -ne 3 ]; then
  echo "FAIL: hc_report diff of a malformed dump exited $status, expected 3"
  exit 1
fi
echo "observability gate OK"

echo "== cycle-accounting gate =="
# A run with the cycle-accounting engine on: the metrics JSON must gain a
# well-formed stall object, hc_report topdown must verify the exact slot
# partition (sum(categories) == width x rounds, no tolerance) and render
# the tables, and the stall-interval CSV must be non-empty; without an
# interval the CSV is one whole-run row equal to their sums. Then prove
# the gate trips: perturb one stall category and expect exit 1.
dune exec bin/hc_sim.exe -- --benchmark gcc --scheme +IR --length 5000 \
  --compare false --topdown --metrics-interval 500 \
  --stall-out "$SMOKE_DIR/acct_stalls.csv" \
  --metrics-out "$SMOKE_DIR/acct_metrics.json" \
  | tee "$SMOKE_DIR/acct_out.txt"
grep -q 'partition invariant: exact' "$SMOKE_DIR/acct_out.txt"
dune exec bin/hc_report.exe -- validate "$SMOKE_DIR/acct_metrics.json"
grep -q '"stall":{' "$SMOKE_DIR/acct_metrics.json"
test -s "$SMOKE_DIR/acct_stalls.csv"
dune exec bin/hc_report.exe -- topdown "$SMOKE_DIR/acct_metrics.json" \
  --intervals "$SMOKE_DIR/acct_stalls.csv"
# the same cell without --metrics-interval: exactly one whole-run row
# [0, ticks) whose counts are the column sums of the 500-tick series
dune exec bin/hc_sim.exe -- --benchmark gcc --scheme +IR --length 5000 \
  --compare false --stall-out "$SMOKE_DIR/acct_whole.csv" \
  --metrics-out "$SMOKE_DIR/acct_whole.json" > /dev/null
test "$(wc -l < "$SMOKE_DIR/acct_whole.csv")" -eq 2
TICKS=$(grep -o '"ticks":[0-9]*' "$SMOKE_DIR/acct_whole.json" | cut -d: -f2)
awk -F, -v ticks="$TICKS" '
  FNR == 1 { next }
  NR == FNR { for (i = 3; i <= NF; i++) sum[i] += $i; n = NF; next }
  { t0 = $1; t1 = $2; wn = NF; for (i = 3; i <= NF; i++) w[i] = $i }
  END {
    if (t0 != 0 || t1 != ticks) {
      print "FAIL: whole-run stall row spans [" t0 ", " t1 "), ticks " ticks
      exit 1
    }
    if (wn != n) { print "FAIL: stall CSVs differ in width"; exit 1 }
    for (i = 3; i <= n; i++)
      if (w[i] != sum[i]) {
        print "FAIL: stall column " i ": whole run " w[i] ", interval sum " sum[i]
        exit 1
      }
  }' "$SMOKE_DIR/acct_stalls.csv" "$SMOKE_DIR/acct_whole.csv"
# accounting must ride along without touching the metrics: strip the
# stall object and the file must diff clean (0 tolerance) against a
# plain run of the same cell
dune exec bin/hc_sim.exe -- --benchmark gcc --scheme +IR --length 5000 \
  --compare false --metrics-out "$SMOKE_DIR/acct_plain.json" > /dev/null
sed -E 's/"stall":\{.*"commit":\{[^}]*\}\},//' "$SMOKE_DIR/acct_metrics.json" \
  > "$SMOKE_DIR/acct_stripped.json"
dune exec bin/hc_report.exe -- diff "$SMOKE_DIR/acct_plain.json" \
  "$SMOKE_DIR/acct_stripped.json"
# ...and prove the partition gate can fail: break one category count
sed -E 's/"dispatch":[0-9]+/"dispatch":1/' "$SMOKE_DIR/acct_metrics.json" \
  > "$SMOKE_DIR/acct_perturbed.json"
if dune exec bin/hc_report.exe -- topdown "$SMOKE_DIR/acct_perturbed.json" \
    > /dev/null; then
  echo "FAIL: hc_report topdown accepted a broken slot partition"
  exit 1
fi
echo "cycle-accounting gate OK"

echo "== sampling profiler =="
# About a second of hc_sim under scripts/profile.sh: the sampler must
# build, sample, and resolve the simulator's own functions by name
./scripts/profile.sh --top 10 -- ./_build/default/bin/hc_sim.exe \
  --cache-dir none --benchmark gcc --scheme +IR --length 400000 --jobs 1 \
  > /dev/null 2> "$SMOKE_DIR/profile.txt"
cat "$SMOKE_DIR/profile.txt"
if ! grep -q ' camlHc_sim__Pipeline\.' "$SMOKE_DIR/profile.txt"; then
  echo "FAIL: the profile names no camlHc_sim__Pipeline function"
  exit 1
fi
# ...and prove the name check can fail: a command that is not hc_sim
./scripts/profile.sh -- true 2> "$SMOKE_DIR/profile_true.txt"
if grep -q ' camlHc_sim__Pipeline\.' "$SMOKE_DIR/profile_true.txt"; then
  echo "FAIL: a profile of true named a camlHc_sim__Pipeline function"
  exit 1
fi
echo "profiler OK"

echo "smoke OK"
