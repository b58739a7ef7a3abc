#!/usr/bin/env bash
# Builds the end-to-end benchmark from source, then runs it.  Run from the
# repository root:
#   bash perfbench/run.sh --workload flood --seed 42 --seconds 10 --trace 0
# All arguments are passed to perfbench/main.exe (see README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: the basalt sources (dune-project, lib/) are not here" >&2
  exit 1
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
