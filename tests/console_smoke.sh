#!/usr/bin/env bash
# Runs the installed `mobiusq` console script on the committed fixtures.
# Usage, from the repository root: bash tests/console_smoke.sh
set -euo pipefail
# a numpy overflow or invalid-value warning fails the run, as under pytest (pyproject.toml)
export PYTHONWARNINGS=error::RuntimeWarning

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# fails unless the import log $1 lists exactly the mobiusq modules named after it
expect_modules() {
    local log=$1 got want
    shift
    got=$(sed -nE 's/^import time: .*\| +(mobiusq(\.[A-Za-z0-9_.]+)?)$/\1/p' "$log" | LC_ALL=C sort -u | tr '\n' ' ')
    want=$(printf '%s\n' "$@" | LC_ALL=C sort -u | tr '\n' ' ')
    if [ "$got" != "$want" ]; then
        echo "$log lists the mobiusq modules: $got; expected: $want" >&2
        exit 1
    fi
}

# verify prints what the golden corpus recorded (verify-0 and verify-3 in tests/data/golden/manifest.json)
for seed in 0 3; do
    mobiusq verify --seed $seed > "$tmp/verify-$seed.stdout"
    cmp "$tmp/verify-$seed.stdout" tests/data/golden/verify-$seed.stdout
    echo "verify --seed $seed: stdout byte-identical to the golden verify-$seed.stdout"
done

mobiusq mobius --input tests/data/mobius3_table.json --check tests/data/mobius3_sweep_shots5000.json
mobiusq marginal --input tests/data/marginal5_table.json --n0 3 --check tests/data/marginal5_n0_3_sweep_shots5000.json
mobiusq minfind --center 13 --n 5 --backend quantum
mobiusq minfind --center 200001 --n 18 --check tests/data/minfind18_classical.json

# --out does not depend on the BLAS thread count, on the pure kernel (a small real table) or on numpy
for threads in 1 4; do
    OPENBLAS_NUM_THREADS=$threads mobiusq marginal --input tests/data/marginal5_table.json --n0 3 \
        --check tests/data/marginal5_n0_3_sweep_shots5000.json --out "$tmp/threads$threads.json" > /dev/null
    OPENBLAS_NUM_THREADS=$threads PYTHONPROFILEIMPORTTIME=1 mobiusq marginal \
        --input tests/data/golden/inputs/marginal5-n0-2-complex.json --sweep --shots 2000 --seed 5 \
        --out "$tmp/complex-threads$threads.json" 2> "$tmp/complex-sweep-imports-$threads.log" > /dev/null
done
cmp "$tmp/threads1.json" "$tmp/threads4.json"
cmp "$tmp/complex-threads1.json" "$tmp/complex-threads4.json"
echo "--out byte-identical at OPENBLAS_NUM_THREADS=1 and 4"
# a complex sweep runs on the numpy kernel alone: the state prep builds no gate, so the gate model stays unloaded
for threads in 1 4; do
    expect_modules "$tmp/complex-sweep-imports-$threads.log" mobiusq mobiusq.__main__ mobiusq.cli mobiusq.bits \
        mobiusq.layout mobiusq.subset mobiusq.circuits mobiusq._pcg64
done
echo "marginal --sweep --shots of a complex table: exactly cli, bits, layout, subset, circuits and _pcg64 of mobiusq in the import log"

# --dump-state scatters the gathered support back into the dense start state
# (the mobius3-dump entry of tests/data/golden/manifest.json)
mobiusq mobius --input tests/data/mobius3_table.json --x 101 --shots 300 --seed 4 \
    --out "$tmp/dump.out.json" --dump-state "$tmp/dump.state.json" > /dev/null
cmp "$tmp/dump.state.json" tests/data/golden/mobius3-dump.state.json
echo "--dump-state byte-identical to the golden mobius3-dump state"
# a complex table runs on numpy and the numpy kernel, mobiusq.circuits, and the dump on the gate model
PYTHONPROFILEIMPORTTIME=1 mobiusq marginal --input tests/data/golden/inputs/marginal5-n0-2-complex.json --x 01 \
    --shots 300 --seed 4 --out "$tmp/mdump.out.json" --dump-state "$tmp/mdump.state.json" \
    2> "$tmp/complex-imports.log" > /dev/null
cmp "$tmp/mdump.state.json" tests/data/golden/marginal5-dump.state.json
echo "marginal --dump-state byte-identical to the golden marginal5-dump state"
expect_modules "$tmp/complex-imports.log" mobiusq mobiusq.__main__ mobiusq.cli mobiusq.bits mobiusq.layout \
    mobiusq.subset mobiusq.circuits mobiusq.gates mobiusq._pcg64
grep -qE '\| +numpy$' "$tmp/complex-imports.log"
echo "marginal --dump-state of a complex table: exactly cli, bits, layout, subset, circuits, gates and _pcg64 of mobiusq, and numpy, in the import log"

# a seeded sweep of a small real table runs on the pure-Python kernel and the sampler: it loads
# no numpy, so neither numpy.random nor the secrets -> hmac -> _hashlib chain that imports
# (tests/test_loading.py pins the same for python -m mobiusq.cli); the log lists the modules the
# CLI loads on first use, so the pure kernel and the sampler show in it
PYTHONPROFILEIMPORTTIME=1 mobiusq mobius --input tests/data/mobius3_table.json --sweep --shots 20000 \
    2> "$tmp/imports.log" > /dev/null
expect_modules "$tmp/imports.log" mobiusq mobiusq.__main__ mobiusq.cli mobiusq.bits mobiusq.layout mobiusq.pure \
    mobiusq._pcg64
if grep -E '\| +(numpy(\..*)?|secrets|_hashlib)$' "$tmp/imports.log"; then
    echo "mobius --sweep --shots on a small real table imported numpy, secrets or _hashlib" >&2
    exit 1
fi
echo "mobius --sweep --shots: exactly cli, bits, layout, pure and _pcg64 of mobiusq, and no numpy, numpy.random, secrets or _hashlib in the import log"

# classical minfind at an in-range center with the default beta runs on minfind.centered_softmin:
# it loads the search and mobiusq.bits, and no numpy, simulator, transform kernel or register layout
PYTHONPROFILEIMPORTTIME=1 mobiusq minfind --center 174099 --n 18 2> "$tmp/minfind-imports.log" > /dev/null
expect_modules "$tmp/minfind-imports.log" mobiusq mobiusq.__main__ mobiusq.cli mobiusq.bits mobiusq.minfind
if grep -E '\| +numpy(\..*)?$' "$tmp/minfind-imports.log"; then
    echo "minfind at an in-range center imported numpy" >&2
    exit 1
fi
echo "minfind --center 174099 --n 18: exactly cli, bits and minfind of mobiusq, and no numpy in the import log"

# the script prints and writes what python -m mobiusq.cli does (tests/test_loading.py
# compares python -m mobiusq with python -m mobiusq.cli)
parity() {
    local name=$1
    shift
    mobiusq "$@" --out "$tmp/$name.script.json" > "$tmp/$name.script.stdout"
    python -m mobiusq.cli "$@" --out "$tmp/$name.module.json" > "$tmp/$name.module.stdout"
    cmp "$tmp/$name.script.stdout" "$tmp/$name.module.stdout"
    cmp "$tmp/$name.script.json" "$tmp/$name.module.json"
    echo "$name: stdout and --out byte-identical from the script and python -m mobiusq.cli"
}
parity marginal-sweep marginal --input tests/data/golden/inputs/marginal5-n0-2-complex.json --sweep --shots 2000 --seed 5
parity minfind-classical minfind --center 174099 --n 18
