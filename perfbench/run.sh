#!/usr/bin/env bash
# Builds the tsa CLI and the benchmark from source in this checkout,
# then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to .bench_work/build.log; the result is the last
# line of standard output.
set -u
cd "$(dirname "$0")/.." || exit 1
mkdir -p .bench_work
# keep the build inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
if ! dune build --root . ./bin/tsa.exe ./perfbench/src/main.exe > .bench_work/build.log 2>&1; then
  cat .bench_work/build.log >&2
  echo "perfbench: build failed" >&2
  exit 1
fi
exec ./_build/default/perfbench/src/main.exe --tsa ./_build/default/bin/tsa.exe "$@"
