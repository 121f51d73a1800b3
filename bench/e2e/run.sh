#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it, from the root of
# a source checkout. All arguments go to run.exe (see bench/e2e/README.md):
#   bash bench/e2e/run.sh --workload pinpoints-sim --seed 1 --seconds 20 --trace 0
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: not at the root of a source checkout (no dune-project or lib/)" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; keep every write inside.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/run.exe >&2
exec ./_build/default/bench/e2e/run.exe "$@"
