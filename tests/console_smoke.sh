#!/usr/bin/env bash
# Runs the installed `mobiusq` console script on the committed fixtures.
# Usage, from the repository root: bash tests/console_smoke.sh
set -euo pipefail

mobiusq verify --seed 0
mobiusq mobius --input tests/data/mobius3_table.json --check tests/data/mobius3_sweep_shots5000.json
mobiusq marginal --input tests/data/marginal5_table.json --n0 3 --check tests/data/marginal5_n0_3_sweep_shots5000.json
mobiusq minfind --center 13 --n 5 --backend quantum
mobiusq minfind --center 200001 --n 18 --check tests/data/minfind18_classical.json

# --out does not depend on the BLAS thread count
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for threads in 1 4; do
    OPENBLAS_NUM_THREADS=$threads mobiusq marginal --input tests/data/marginal5_table.json --n0 3 \
        --check tests/data/marginal5_n0_3_sweep_shots5000.json --out "$tmp/threads$threads.json" > /dev/null
done
cmp "$tmp/threads1.json" "$tmp/threads4.json"
echo "--out byte-identical at OPENBLAS_NUM_THREADS=1 and 4"
