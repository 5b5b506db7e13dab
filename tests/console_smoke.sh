#!/usr/bin/env bash
# Runs the installed `mobiusq` console script on the committed fixtures.
# Usage, from the repository root: bash tests/console_smoke.sh
set -euo pipefail
# a numpy overflow or invalid-value warning fails the run, as under pytest (pyproject.toml)
export PYTHONWARNINGS=error::RuntimeWarning

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

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
    OPENBLAS_NUM_THREADS=$threads mobiusq marginal --input tests/data/golden/inputs/marginal5-n0-2-complex.json \
        --sweep --shots 2000 --seed 5 --out "$tmp/complex-threads$threads.json" > /dev/null
done
cmp "$tmp/threads1.json" "$tmp/threads4.json"
cmp "$tmp/complex-threads1.json" "$tmp/complex-threads4.json"
echo "--out byte-identical at OPENBLAS_NUM_THREADS=1 and 4"

# --dump-state scatters the gathered support back into the dense start state
# (the mobius3-dump entry of tests/data/golden/manifest.json)
mobiusq mobius --input tests/data/mobius3_table.json --x 101 --shots 300 --seed 4 \
    --out "$tmp/dump.out.json" --dump-state "$tmp/dump.state.json" > /dev/null
cmp "$tmp/dump.state.json" tests/data/golden/mobius3-dump.state.json
echo "--dump-state byte-identical to the golden mobius3-dump state"
# a complex table runs on numpy, which the import log lists
PYTHONPROFILEIMPORTTIME=1 mobiusq marginal --input tests/data/golden/inputs/marginal5-n0-2-complex.json --x 01 \
    --shots 300 --seed 4 --out "$tmp/mdump.out.json" --dump-state "$tmp/mdump.state.json" \
    2> "$tmp/complex-imports.log" > /dev/null
cmp "$tmp/mdump.state.json" tests/data/golden/marginal5-dump.state.json
echo "marginal --dump-state byte-identical to the golden marginal5-dump state"
grep -qE '\| +numpy$' "$tmp/complex-imports.log"
echo "marginal --dump-state of a complex table: numpy in the import log"

# a seeded sweep of a small real table runs on the pure-Python kernel: it loads no numpy, so
# neither numpy.random nor the secrets -> hmac -> _hashlib chain that imports (tests/test_loading.py
# pins the same for python -m mobiusq.cli); the mobiusq.cli line shows the log was written, and the
# _pcg64 line that it lists the modules the CLI loads on first use
PYTHONPROFILEIMPORTTIME=1 mobiusq mobius --input tests/data/mobius3_table.json --sweep --shots 20000 \
    2> "$tmp/imports.log" > /dev/null
grep -qE '\| +mobiusq\.cli$' "$tmp/imports.log"
grep -qE '\| +mobiusq\._pcg64$' "$tmp/imports.log"
if grep -E '\| +(numpy(\..*)?|secrets|_hashlib)$' "$tmp/imports.log"; then
    echo "mobius --sweep --shots on a small real table imported numpy, secrets or _hashlib" >&2
    exit 1
fi
echo "mobius --sweep --shots: no numpy, numpy.random, secrets or _hashlib in the import log"

# classical minfind loads none of the simulator, and at an in-range center with the default beta
# it runs on mobiusq.sparse and loads no numpy, no transform kernel and no register layout; the
# minfind line shows the log lists first-use loads
PYTHONPROFILEIMPORTTIME=1 mobiusq minfind --center 174099 --n 18 2> "$tmp/minfind-imports.log" > /dev/null
grep -qE '\| +mobiusq\.minfind$' "$tmp/minfind-imports.log"
if grep -E '\| +mobiusq\.(sim|circuits|grover|gates)$' "$tmp/minfind-imports.log"; then
    echo "classical minfind imported the simulator" >&2
    exit 1
fi
if grep -E '\| +numpy(\..*)?$' "$tmp/minfind-imports.log"; then
    echo "minfind at an in-range center imported numpy" >&2
    exit 1
fi
if grep -E '\| +mobiusq\.(pure|readout|layout)$' "$tmp/minfind-imports.log"; then
    echo "minfind at an in-range center imported the pure kernel, the readout or the register layout" >&2
    exit 1
fi
echo "minfind --center 174099 --n 18: no numpy, sim, circuits, grover, gates, pure, readout or layout in the import log"

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
