#!/bin/sh
# Deliberately re-record the committed regression baselines that
# scripts/smoke.sh gates against: gcc under +IR and mcf under baseline,
# 5 000 uops each. The simulator is deterministic (fixed profile seeds),
# so a baseline only changes when the model itself does — run this after
# an intentional behaviour change, eyeball the `hc_report diff` it prints
# for each file, and commit the new files with the change that caused
# them.
#
#   ./scripts/refresh_baseline.sh
set -eu
cd "$(dirname "$0")/.."

dune build bin/hc_sim.exe bin/hc_report.exe
mkdir -p baselines
OLD=$(mktemp)
trap 'rm -f "$OLD"' EXIT

for cell in "gcc +IR" "mcf baseline"; do
  bench=${cell% *}
  scheme=${cell#* }
  BASELINE=baselines/${bench}_smoke.json
  had_old=false
  if [ -f "$BASELINE" ]; then
    cp "$BASELINE" "$OLD"
    had_old=true
  fi
  dune exec bin/hc_sim.exe -- --benchmark "$bench" --scheme "$scheme" \
    --length 5000 --compare false --metrics-out "$BASELINE"
  if $had_old; then
    echo
    echo "== what changed vs the previous $BASELINE =="
    # informational: nonzero just means the baseline moved, which is the point
    dune exec bin/hc_report.exe -- diff "$OLD" "$BASELINE" || true
  fi
  echo
  echo "refreshed $BASELINE — review and commit it together with the change"
done
