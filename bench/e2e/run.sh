#!/usr/bin/env bash
# Build rabench from this checkout's sources and run it; every argument
# passes through. Run from the repository root:
#
#   bash bench/e2e/run.sh --workload suite --seed 1 --seconds 15 --trace 0
#
# The build log goes to stderr, so stdout carries only rabench's report.
set -euo pipefail
cd "$(dirname "$0")/../.."
# keep every build product inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/rabench.exe 1>&2
exec ./_build/default/bench/e2e/rabench.exe "$@"
