#!/usr/bin/env bash
# Build the compile daemon and the end-to-end benchmark from this
# checkout, then run one workload:
#
#   bash bench/e2e/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Build output goes to standard error; the last line of standard output
# is the run's JSON result.  Exits 2 without a result when the checkout
# lacks the sources the benchmark builds.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: $root holds no dune project with lib/ and bin/ to build" >&2
  exit 2
fi
dune build --root . --display quiet --cache disabled bench/e2e/e2e.exe bin/stardustc.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe run "$@"
