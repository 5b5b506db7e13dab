"""Benchmark of the mobiusq command line on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's input is generated from the seed (see workloads.py).  The
benchmark then runs the CLI as a fresh process again and again, a closed loop
with one client, for S seconds in all, set-up probes included.  Each
invocation is checked by the numpy-only oracle, and its --out JSON must be
byte-identical to the first invocation's, because the seed and input do not
change.  A non-zero exit or a failed check counts as a failed invocation.

Each round starts with the fixed reference kernel (calibrate.py), which does
not run mobiusq.  On a shared host the CPU speed drifts by tens of percent
over minutes; timings are therefore published normalised, as
measured * REF_S / reference, i.e. in seconds on a host where the kernel
takes REF_S.  The raw seconds are printed beside them.

--trace 0 reports the end-to-end metrics, each a median over the run:
    wall_norm_s  wall time of one invocation, process start to exit,
                 normalised by the round's reference wall time
    cpu_norm_s   user + sys CPU time of that process, all its threads,
                 normalised by the round's reference CPU time
    peak_rss_mb  peak resident memory of that process
    setup_s      fresh-process time to import mobiusq.cli and load and
                 validate the input (setup_probe.py), probed every other
                 round, normalised like wall_norm_s
    ok_frac      invocations that passed / invocations attempted
--trace 1 alternates plain and traced invocations (tracer.py) and reports
the per-layer metrics of the traced invocation whose root span is the
median one, plus trace.overhead_s = median traced - median plain wall time,
the raw medians (raw.*) and the reference kernel's median time (host.ref_s).

Metric names and units come from BENCHMARK.json at the checkout root.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
The program is run from <checkout>/src with the caller's environment, so it
keeps its default threading; the environment is printed, not chosen.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
MIN_RUNS = 3  # plain invocations, or plain/traced pairs with --trace 1
REF_S = 0.3  # nominal reference-kernel time that normalised seconds refer to
CHILD_TIMEOUT_S = 60.0
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] | None = None  # per-layer, traced invocations only
    ref: Invocation | None = None  # the reference kernel run of the same round

    @property
    def wall_norm_s(self) -> float:
        return self.wall_s * REF_S / self.ref.wall_s

    @property
    def cpu_norm_s(self) -> float:
        return self.cpu_s * REF_S / self.ref.cpu_s


def run_child(argv: list[str], env: dict, cwd: Path, log: Path) -> Invocation:
    """Run one process to completion; wall time, rusage and exit code."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=cwd)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        result.problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
    return result


class Bench:
    def __init__(self, workload: workloads.Workload, src: Path, workdir: Path):
        self.workload = workload
        self.src = src
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
        )
        self.reference: str | None = None  # first --out text of this run
        self.first_output: dict | None = None

    def calibrate(self) -> Invocation:
        argv = [sys.executable, str(HERE / "calibrate.py")]
        return run_child(argv, self.env, self.workdir, self.workdir / "ref.log")

    def setup_probe(self) -> Invocation:
        argv = [sys.executable, str(HERE / "setup_probe.py"), str(self.src)]
        return run_child(argv + list(self.workload.cli_args), self.env, self.workdir,
                         self.workdir / "setup.log")

    def invoke(self, traced: bool) -> Invocation:
        out = self.workdir / "out.json"
        record = self.workdir / "record.json"
        out.unlink(missing_ok=True)
        record.unlink(missing_ok=True)
        cli_args = [*self.workload.cli_args, "--out", out.name]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), "--record", record.name, "--"]
        else:
            argv = [sys.executable, "-m", "mobiusq.cli"]
        result = run_child(argv + cli_args, self.env, self.workdir, self.workdir / "cli.log")
        if result.problems:
            return result
        try:
            text = out.read_text()
            obj = json.loads(text)
            rec = json.loads(record.read_text()) if traced else None
        except (OSError, ValueError) as exc:
            result.problems.append(f"unreadable output: {exc}")
            return result
        try:
            result.problems += self.workload.check(obj)
        except (KeyError, TypeError, ValueError) as exc:
            result.problems.append(f"malformed output: {exc!r}")
        if self.reference is None:
            self.reference, self.first_output = text, obj
        elif text != self.reference:
            result.problems.append("--out differs from the first invocation with this seed")
        if rec is not None:
            result.problems += rec["problems"]
            result.wall_s -= rec["post_s"]
            result.metrics = rec["metrics"]
        return result


def more_rounds(round_s: list[float], deadline: float) -> bool:
    """Start another round if it should end by the deadline; at least MIN_RUNS
    rounds while time remains, and always one."""
    now = time.perf_counter()
    if len(round_s) < MIN_RUNS:
        return not round_s or now < deadline
    return now + statistics.median(round_s) <= deadline


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    xs = sorted(values)
    for p in (99, 95, 90, 75, 50):
        v = xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]
        if sum(x > v for x in xs) >= 10:
            return p, v
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_version = "unknown"
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version,
        "cli_pool_width": min(8, nproc),  # mirrors the CLI's ThreadPoolExecutor
        "blas_thread_vars": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
    }


def summary_line(name: str, unit: str, values: list[float]) -> str:
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "-"
    return f"  {name:<12} {unit:<6} {statistics.median(values):<12.6g} {tail_text:<18} {len(values)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="mobiusq CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    src = root / "src"
    if not (src / "mobiusq" / "cli.py").is_file():
        print(f"error: no mobiusq sources under {src}", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        return measure(args, declared, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, declared: dict, src: Path, workdir: Path) -> int:
    deadline = time.perf_counter() + args.seconds
    workload = workloads.build(args.workload, args.seed, workdir)
    bench = Bench(workload, src, workdir)

    warm = bench.setup_probe()  # fills bytecode caches; untimed
    if warm.problems:
        print(f"error: set-up probe failed: {warm.problems[0]}", file=sys.stderr)
        return 2

    setup: list[Invocation] = []
    plain: list[Invocation] = []
    traced: list[Invocation] = []
    refs: list[Invocation] = []
    round_s: list[float] = []  # one plain invocation, or a plain/traced pair
    while more_rounds(round_s, deadline):
        start = time.perf_counter()
        ref = bench.calibrate()
        if ref.problems:
            print(f"error: reference kernel failed: {ref.problems[0]}", file=sys.stderr)
            return 2
        refs.append(ref)
        # set-up probes are spread over the run, so they see the same machine
        # load as the invocations do
        if len(setup) <= len(round_s) // 2:
            probe = bench.setup_probe()
            if probe.problems:
                print(f"error: set-up probe failed: {probe.problems[0]}", file=sys.stderr)
                return 2
            probe.ref = ref
            setup.append(probe)
        if args.trace:  # alternate which of the pair runs first
            order = (False, True) if len(round_s) % 2 == 0 else (True, False)
        else:
            order = (False,)
        for t in order:
            run = bench.invoke(traced=t)
            run.ref = ref
            (traced if t else plain).append(run)
        round_s.append(time.perf_counter() - start)

    runs = plain + traced
    failed = sum(1 for r in runs if r.problems)
    sentinel_ok = True
    if bench.first_output is not None:
        sentinel_ok = bool(workload.check(workload.corrupt(bench.first_output)))

    series = {
        "wall_norm_s": [r.wall_norm_s for r in plain],
        "cpu_norm_s": [r.cpu_norm_s for r in plain],
        "peak_rss_mb": [r.peak_rss_mb for r in plain],
        "setup_s": [p.wall_norm_s for p in setup],
        "raw.wall_s": [r.wall_s for r in plain],
        "raw.cpu_s": [r.cpu_s for r in plain],
        "raw.setup_s": [p.wall_s for p in setup],
        "host.ref_s": [r.wall_s for r in refs],
    }
    medians = {k: statistics.median(v) for k, v in series.items()}

    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    print(f"mobiusq benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("command: mobiusq " + " ".join(workload.cli_args))
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(f"  {'metric':<12} {'unit':<6} {'median':<12} {'tail':<18} samples")
    for name, values in series.items():
        print(summary_line(name, units[name], values))
    print(f"  fail_frac {failed}/{len(runs)}; oracle sentinel "
          + ("rejected a corrupted output" if sentinel_ok else "ACCEPTED a corrupted output"))
    for r in runs:
        if r.problems:
            print("  failure: " + "; ".join(r.problems[:3]))
            break

    if args.trace:
        measured = sorted((r for r in traced if r.metrics), key=lambda r: r.metrics["trace.root_s"])
        if not measured:
            print("error: no traced invocation produced metrics", file=sys.stderr)
            return 2
        metrics = dict(measured[(len(measured) - 1) // 2].metrics)
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall_s for r in traced) - medians["raw.wall_s"]
        )
        metrics.update({k: v for k, v in medians.items() if k.startswith(("raw.", "host."))})
        print(f"  traced invocations {len(traced)}, plain {len(plain)}; "
              f"tracing overhead {metrics['trace.overhead_s']:.4f} s")
        names = [m["name"] for m in declared["per_layer"]]
    else:
        metrics = {k: medians[k] for k in ("wall_norm_s", "cpu_norm_s", "peak_rss_mb", "setup_s")}
        metrics["ok_frac"] = (len(runs) - failed) / len(runs)
        names = [m["name"] for m in declared["end_to_end"]]
    if set(metrics) != set(names):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {names}",
              file=sys.stderr)
        return 2
    if args.trace:
        for k in names:
            print(f"  {k:<34} {units[k]:<6} {metrics[k]:.6g}")

    result = {
        "correct": failed == 0 and sentinel_ok,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
