"""Golden-output corpus of the mobiusq CLI: the manifest, its runner and its writer.

Each entry is one CLI invocation.  Its expected exit code sits in
``tests/data/golden/manifest.json``; its stdout and the files it writes
(``--out``, ``--dump-state``) sit beside the manifest as
``<name>.stdout``, ``<name>.out.json`` and ``<name>.state.json``.
``tests/test_golden.py`` reruns every entry and compares bytes.

The scale entries, at 21 to 26 qubits, have inputs too large to keep: each
names a seeded ``generated_input`` spec, which the runner writes into its
work directory, and the manifest pins the sha256 of the bytes generated, so a
change in numpy's generator stream fails loudly instead of changing the
input.  A file listed in an entry's ``sha256`` map (the 18-qubit dump) is
pinned by its sha256 instead of its bytes.

Regenerate the corpus, from the root of a checkout, with

    python tests/golden.py

which writes every expected file from the code in ``src/``, at one BLAS
thread, and the entries' input files where they are missing.  A change that
regenerates says why in CHANGES.md; the diff of these files then shows every
byte the change moved.

    python tests/golden.py --numpy-free

reruns only the ``NUMPY_FREE`` entries, those the pure-Python kernels run,
and compares their bytes; it needs no numpy installed, and exits 1 on any
mismatch.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"
INPUTS = GOLDEN / "inputs"
MANIFEST = GOLDEN / "manifest.json"
OUTPUT_FLAGS = {"{out}": "out", "{state}": "state"}  # argv placeholder -> file key

# the entries the pure-Python kernels run, with no numpy loaded: transforms of small real
# tables (mobiusq.pure) and classical minfind at an in-range center (minfind.centered_softmin)
NUMPY_FREE = (
    "sweep-41", "sweep-7", "marginal-point-41", "marginal-point-7",
    "mobius3-shots-max", "marginal5-shots-1", "marginal3-zeros",
    "minfind-classical-41", "minfind-classical-7", "minfind18-center-0", "minfind18-center-262143",
    "minfind1-center-1", "minfind22-center-1398101",
)


def _workload_args(name: str, seed: int) -> list[str]:
    """argv of a benchmark workload, with its generated table kept under INPUTS."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.build(name, seed, Path(tmp))
        args = list(workload.cli_args)
        if "--input" in args:
            i = args.index("--input") + 1
            kept = INPUTS / f"{name}-{seed}.json"
            if not kept.exists():
                kept.write_text((Path(tmp) / args[i]).read_text())
            args[i] = kept.relative_to(ROOT).as_posix()
    return args


def _complex_marginal_query(n: int, n0: int) -> str:
    """A marginal query input with complex psi_minus; returns its path."""
    kept = INPUTS / f"marginal{n}-n0-{n0}-complex.json"
    if not kept.exists():
        import numpy as np

        rng = np.random.default_rng(500 + 100 * (n - 5) + n0)
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        amps /= np.linalg.norm(amps)
        obj = {
            "mode": "marginal",
            "n": n,
            "n0": n0,
            "psi_minus": [[float(a.real), float(a.imag)] for a in amps],
            "x": "0" * n0,
        }
        kept.write_text(json.dumps(obj) + "\n")
    return kept.relative_to(ROOT).as_posix()


def _decades_objective(n: int) -> str:
    """A minfind objective table whose values span six decades; returns its path."""
    kept = INPUTS / f"minfind{n}-decades.json"
    if not kept.exists():
        import numpy as np

        values = 10.0 ** np.random.default_rng(1200 + n).uniform(0.0, 6.0, 1 << n)
        kept.write_text(json.dumps({"n": n, "values": values.tolist()}) + "\n")
    return kept.relative_to(ROOT).as_posix()


def generated_input(spec: dict) -> bytes:
    """The JSON bytes of a seeded input: a probability table, or a query with complex psi_minus.

    A "sparse-table" is a table with about 40% of its entries 0 and 30% scaled
    by 1e-28, so the prep has rows that are skipped or whose angle is within
    1e-12 of 0 on its last levels.
    """
    import numpy as np

    rng = np.random.default_rng(spec["seed"])
    n = spec["n"]
    if spec["kind"] in ("table", "sparse-table"):
        values = rng.random(1 << n)
        if spec["kind"] == "sparse-table":
            draw = rng.random(1 << n)
            values[draw < 0.4] = 0.0
            values[draw >= 0.7] *= 1e-28
        obj = {"n": n, "values": (values / values.sum()).tolist()}
    else:
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        amps /= np.linalg.norm(amps)
        n0 = spec.get("n0", n)
        obj = {
            "mode": spec["mode"],
            "n": n,
            "n0": n0,
            "psi_minus": [[float(a.real), float(a.imag)] for a in amps],
            "x": "0" * n0,
        }
    return (json.dumps(obj) + "\n").encode()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _scale_entries() -> list[dict]:
    """Points at 21-26 qubits, each on a generated input (the "{input}" argv placeholder)."""
    sweep = ["--sweep", "--shots", "2000", "--seed", "5", "--out", "{out}"]
    runs = []
    for n in (6, 7):
        runs.append((f"mobius{n}-real", {"kind": "table", "n": n, "seed": 100 * n + 6}, ["mobius", *sweep]))
        runs.append((f"mobius{n}-complex", {"kind": "query", "mode": "mobius", "n": n, "seed": 100 * n + 16},
                     ["mobius", *sweep]))
    runs += [
        ("marginal16-n0-2-complex", {"kind": "query", "mode": "marginal", "n": 16, "n0": 2, "seed": 1602},
         ["marginal", "--sweep", "--shots", "1000", "--seed", "3", "--out", "{out}"]),
        ("marginal16-n0-2-sparse", {"kind": "sparse-table", "n": 16, "seed": 1612},
         ["marginal", "--n0", "2", "--sweep", "--shots", "1000", "--seed", "3", "--out", "{out}"]),
        # n=19, n0=2 is 26 qubits, the cap
        ("marginal19-n0-2-real", {"kind": "table", "n": 19, "seed": 1902},
         ["marginal", "--n0", "2", "--x", "01", "--out", "{out}"]),
        # 18 qubits: the state file is about 9 MB, so it is pinned by its sha256
        ("mobius5-dump", {"kind": "query", "mode": "mobius", "n": 5, "seed": 505},
         ["mobius", "--x", "10110", "--shots", "300", "--seed", "4", "--out", "{out}", "--dump-state", "{state}"]),
    ]
    out = []
    for name, spec, argv in runs:
        command, *rest = argv
        entry = {"name": name, "argv": [command, "--input", "{input}", *rest], "input": spec}
        if "{state}" in argv:
            entry["sha256"] = {"state": None}
        out.append(entry)
    return out


def entries() -> list[dict]:
    """The corpus entries: a name and the CLI argv, output paths as placeholders."""
    runs = []
    for seed in (41, 7):
        for name in ("sweep", "marginal-point", "minfind-classical"):
            runs.append((f"{name}-{seed}", _workload_args(name, seed) + ["--out", "{out}"]))
    mobius3 = "tests/data/mobius3_table.json"
    runs += [
        ("mobius3-dump", ["mobius", "--input", mobius3, "--x", "101", "--shots", "300", "--seed", "4",
                          "--out", "{out}", "--dump-state", "{state}"]),
        ("minfind-quantum", ["minfind", "--center", "13", "--n", "5", "--backend", "quantum",
                             "--out", "{out}"]),
        ("verify-0", ["verify", "--seed", "0"]),
        ("verify-3", ["verify", "--seed", "3"]),
    ]
    # n=10/n0=3 gives the prep level gates up to 127 rows each
    for n, n0 in ((5, 2), (5, 3), (10, 3)):
        path = _complex_marginal_query(n, n0)
        runs.append((f"marginal{n}-n0-{n0}-complex", ["marginal", "--input", path, "--sweep",
                                                      "--shots", "2000", "--seed", "5", "--out", "{out}"]))
    runs.append(("marginal5-dump", ["marginal", "--input", _complex_marginal_query(5, 2), "--x", "01",
                                    "--shots", "300", "--seed", "4",
                                    "--out", "{out}", "--dump-state", "{state}"]))
    # the sampling stream at its edges: the largest shot count, a single shot, and cells
    # that are exactly zero (the n0=2 marginal of x=11 in marginal3-zeros is 0)
    runs += [
        ("mobius3-shots-max", ["mobius", "--input", mobius3, "--sweep", "--shots", str((1 << 63) - 1),
                               "--out", "{out}"]),
        ("marginal5-shots-1", ["marginal", "--input", "tests/data/marginal5_table.json", "--n0", "3",
                               "--sweep", "--shots", "1", "--out", "{out}"]),
        ("marginal3-zeros", ["marginal", "--input", "tests/data/golden/inputs/marginal3-zeros.json", "--n0", "2",
                             "--sweep", "--shots", "20000", "--seed", "9", "--out", "{out}"]),
    ]
    # classical minfind probes at their extremes: center 0 probes x = 2**j - 1, so each
    # probe sums one aligned low block; center 2**18 - 1 probes every point with one bit
    # clear, so the probe at bit j sums 2**(17 - j) such blocks; n = 1 is the smallest
    # table.  At --beta 1 about 98% of the decades objective's softmin entries clamp to
    # float64 tiny, and its probe values span hundreds of decades.
    runs += [
        (f"minfind{n}-center-{center}", ["minfind", "--center", str(center), "--n", str(n), "--out", "{out}"])
        for n, center in ((18, 0), (18, (1 << 18) - 1), (1, 1), (22, 1398101))
    ]
    runs.append(("minfind12-decades", ["minfind", "--input", _decades_objective(12), "--beta", "1",
                                       "--out", "{out}"]))
    return [{"name": name, "argv": argv} for name, argv in runs] + _scale_entries()


def env(threads: str = "1") -> dict[str, str]:
    """The caller's environment with src/ on the path and the BLAS thread count set."""
    out = dict(os.environ)
    out["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), out.get("PYTHONPATH")) if p)
    out["OPENBLAS_NUM_THREADS"] = threads
    return out


def run(entry: dict, workdir: Path, threads: str = "1") -> dict:
    """Run one entry from the checkout root; returns its exit code, stdout and file bytes.

    An entry with a generated input also returns that input's sha256.
    """
    files = {key: workdir / f"{entry['name']}.{key}.json" for key in OUTPUT_FLAGS.values()}
    argv = [str(files[OUTPUT_FLAGS[a]]) if a in OUTPUT_FLAGS else a for a in entry["argv"]]
    generated = {}
    if "input" in entry:
        data = generated_input(entry["input"])
        path = workdir / f"{entry['name']}.input.json"
        path.write_bytes(data)
        argv = [str(path) if a == "{input}" else a for a in argv]
        generated["input_sha256"] = _sha256(data)
    proc = subprocess.run(
        [sys.executable, "-m", "mobiusq.cli", *argv],
        cwd=ROOT,
        env=env(threads),
        capture_output=True,
        timeout=300,
    )
    written = {key: path.read_bytes() for key, path in files.items() if path.exists()}
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "files": written, **generated}


def mismatches(entry: dict, got: dict) -> list[str]:
    """What a run of ``entry`` did not reproduce: exit code, stdout, each file, the input's sha256."""
    name = entry["name"]
    out = []
    if got["exit"] != entry["exit"]:
        out.append(f"{name}: exit {got['exit']} vs {entry['exit']}: {got['stderr'][-300:]!r}")
    if got["stdout"] != (GOLDEN / f"{name}.stdout").read_bytes():
        out.append(f"{name}: stdout differs")
    if "input" in entry and got["input_sha256"] != entry["input"]["sha256"]:
        out.append(f"{name}: generated input has sha256 {got['input_sha256']}, pinned {entry['input']['sha256']}")
    pinned = entry.get("sha256", {})
    for key, path in expected_files(name).items():
        data = got["files"].get(key)
        if key in pinned:
            if data is None or _sha256(data) != pinned[key]:
                out.append(f"{name}: {key} file does not have its pinned sha256")
        elif data != (path.read_bytes() if path.exists() else None):
            out.append(f"{name}: {key} file differs")
    return out


def run_all(manifest: list[dict], workdir: Path, threads: str = "1") -> list[dict]:
    """Run every entry, two processes at a time."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda e: run(e, workdir, threads), manifest))


def expected_files(name: str) -> dict[str, Path]:
    return {key: GOLDEN / f"{name}.{key}.json" for key in OUTPUT_FLAGS.values()}


def check_numpy_free() -> int:
    """Rerun the NUMPY_FREE entries of the manifest and print what each did not reproduce."""
    manifest = [entry for entry in json.loads(MANIFEST.read_text()) if entry["name"] in NUMPY_FREE]
    assert len(manifest) == len(NUMPY_FREE), "a NUMPY_FREE entry is not in the manifest"
    with tempfile.TemporaryDirectory() as tmp:
        results = run_all(manifest, Path(tmp))
    problems = [line for entry, got in zip(manifest, results) for line in mismatches(entry, got)]
    print(*problems or [f"{len(manifest)} entries byte-identical"], sep="\n")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden corpus from the code in src/.")
    parser.add_argument("--numpy-free", action="store_true", help="compare the NUMPY_FREE entries instead")
    if parser.parse_args().numpy_free:
        return check_numpy_free()
    INPUTS.mkdir(parents=True, exist_ok=True)
    manifest = entries()
    with tempfile.TemporaryDirectory() as tmp:
        results = run_all(manifest, Path(tmp))
    for entry, result in zip(manifest, results):
        entry["exit"] = result["exit"]
        if "input" in entry:
            entry["input"]["sha256"] = result["input_sha256"]
        (GOLDEN / f"{entry['name']}.stdout").write_bytes(result["stdout"])
        pinned = entry.get("sha256", {})
        for key, path in expected_files(entry["name"]).items():
            if key in pinned:
                pinned[key] = _sha256(result["files"][key])
                path.unlink(missing_ok=True)
            elif key in result["files"]:
                path.write_bytes(result["files"][key])
            else:
                path.unlink(missing_ok=True)
        print(f"{entry['name']}: exit {result['exit']}, files {sorted(result['files'])}")
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
