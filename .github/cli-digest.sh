#!/usr/bin/env bash
# Hash the stdout and exit code of the README's example commands, of two
# sweeps that leave pairs unknown, and of classify, coboundary and
# unperforation on every model file, in both formats, together.  Run from the repository root:
#
#     bash .github/cli-digest.sh [EXPECTED]
#
# Prints "cli digest <sha256>"; with EXPECTED, exits 1 unless they match.
set -eo pipefail
export PYTHONPATH=src
run() { code=0; python3 -m typesemigroup.cli "$@" || code=$?; echo "exit $code"; }
digest=$(
  for fmt in json text; do
    while read -r cmd; do
      run $cmd --format "$fmt"
    done <<'COMMANDS'
classify models/two_loops.json
equiv models/two_loops.json --lhs 1 --rhs 2
leq models/cross_double.json --lhs 1,0 --rhs 0,2
paradox models/rank2_single_vertex.json --target 1 --k 2 --l 1
state models/one_loop.json --target 1
coboundary models/triangular.json
unperforation models/two_loops.json --coeff-bound 4
unperforation models/cross_double.json --coeff-bound 4 --budget-states 3
unperforation models/triangular.json --coeff-bound 4 --budget-states 3
oracle-compare models/three_cycle.json --samples 100 --seed 7
stabilize-test models/transposition.json --n 4
COMMANDS
    for model in models/*.json; do
      run classify "$model" --format "$fmt"
      run coboundary "$model" --format "$fmt"
      run unperforation "$model" --coeff-bound 2 --format "$fmt"
    done
  done | sha256sum
)
echo "cli digest ${digest%% *}"
if [ -n "$1" ]; then
  test "${digest%% *}" = "$1"
fi
