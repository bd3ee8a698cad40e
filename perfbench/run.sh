#!/usr/bin/env bash
# Build simcov and the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a source checkout. Build output goes to stderr so
# the last stdout line stays the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./bin/simcov.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --simcov ./_build/default/bin/simcov.exe "$@"
