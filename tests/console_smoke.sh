#!/usr/bin/env bash
# Runs the installed `mobiusq` console script on the committed fixtures.
# Usage, from the repository root: bash tests/console_smoke.sh
set -euo pipefail

mobiusq verify --seed 0
mobiusq mobius --input tests/data/mobius3_table.json --check tests/data/mobius3_sweep_shots5000.json
mobiusq marginal --input tests/data/marginal5_table.json --n0 3 --check tests/data/marginal5_n0_3_sweep_shots5000.json
mobiusq minfind --center 13 --n 5 --backend quantum
mobiusq minfind --center 200001 --n 18 --check tests/data/minfind18_classical.json
