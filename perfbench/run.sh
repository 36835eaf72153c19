#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from anywhere inside a checkout of the repository. The last line of
# standard output is the JSON result; build output goes to standard error.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
# the shared dune cache lives outside the checkout; build without it
dune build --root . --cache=disabled ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
