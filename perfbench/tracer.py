"""Traced run of one mobiusq CLI invocation, split into per-layer metrics.

Usage: python3 tracer.py --record FILE -- <mobiusq CLI arguments>

Spans are recorded from outside the package: public functions are replaced,
at the module attribute where their caller looks them up, by wrappers that
time the call.  ``cli.main`` is the root span; a span opened on a thread with
no open span (a CLI pool worker) hangs under the root.

The start state is built by replaying ``build_start_circuit``'s ops through
the public ``apply_circuit`` in contiguous segments labelled prep, branch,
comparator and mark, read off each op's target qubits.  After ``cli.main``
returns, every distinct query's start state is rebuilt in one shot and must
equal the replayed one byte for byte, so the split measures the same program.
That rebuild also yields the tracemalloc peak of one build and the realised
Grover success, read with the public ``project``.  None of it is inside the
root span.

Self times are wall-clock shares: each instant of the root span is divided
equally among the innermost spans open at that instant, so the self times of
all spans add up to the root span even when pool threads overlap.

FILE receives {"metrics", "problems", "post_s"}; post_s is the time spent
after the root span closed, which the benchmark subtracts from the process
wall time.  The exit code is the CLI's.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import mobiusq.circuits as circuits
import mobiusq.cli as cli
import mobiusq.grover as grover
import mobiusq.minfind as minfind
import mobiusq.sim as sim

# span name -> per-layer metric holding its self time; every span is listed,
# so the reported self times add up to the root span.
SELF_METRICS = {
    "cli.main": "cli.self_s",
    "circuits.classical_value": "circuits.classical_value_s",
    "circuits.build_start_state": "circuits.start_state_self_s",
    "circuits.build_start_circuit": "circuits.build_circuit_s",
    "sim.compile_state_prep": "sim.compile_prep_s",
    "sim.apply.prep": "sim.prep_s",
    "sim.apply.branch": "sim.branch_s",
    "sim.apply.comparator": "sim.comparator_s",
    "sim.apply.mark": "sim.mark_s",
    "grover.estimate_exact": "grover.readout_s",
    "grover.estimate_sampled": "grover.sampling_s",
    "grover.plan_grover": "grover.plan_s",
    "grover.amplify": "grover.amplify_s",
    "minfind.quadratic_objective": "minfind.objective_s",
    "minfind.choose_beta": "minfind.choose_beta_s",
    "minfind.softmin_table": "minfind.softmin_s",
    "minfind.classical_evaluator": "minfind.evaluator_self_s",
    "subset.zeta_fast": "subset.zeta_fast_s",
    "minfind.find_min": "minfind.find_min_self_s",
}

AMP_BYTES = 16  # complex128


class Tracer:
    """In-memory span recorder; spans are (id, parent id, name, start, end)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        stack = self._local.stack
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        if parent is None:
            self.root = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, module, attr: str, name: str, on_result=None):
        """Replace module.attr by a wrapper that records a span around each call."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(module, attr, wrapper)


def self_times(spans) -> dict[int, float]:
    """Wall-clock share of each span: open time not covered by open children."""
    parent = {sid: p for sid, p, _, _, _ in spans}
    events = sorted(
        [(start, 1, sid) for sid, _, _, start, _ in spans]
        + [(end, 0, sid) for sid, _, _, _, end in spans]
    )
    out = defaultdict(float)
    open_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    inner: set[int] = set()
    last = None
    for t, opening, sid in events:
        if inner:
            share = (t - last) / len(inner)
            for s in inner:
                out[s] += share
        last = t
        p = parent[sid]
        if opening:
            active.add(sid)
            inner.add(sid)
            if p is not None:
                open_children[p] += 1
                inner.discard(p)
        else:
            active.discard(sid)
            inner.discard(sid)
            if p is not None:
                open_children[p] -= 1
                if open_children[p] == 0 and p in active:
                    inner.add(p)
    return out


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def split_start_circuit(circuit: sim.Circuit) -> list[tuple[str, tuple]]:
    """Contiguous (stage, ops) runs of a start circuit, in circuit order.

    prep: leading ops that touch only alpha_minus.  comparator: from the
    first op writing alpha to the last op writing beta.  mark: the final op.
    branch: the rest, i.e. the omega X, mu0 H and gamma CX before the
    comparator and the mu0=0 Hadamards after it.
    """
    layout = circuit.layout
    ops = circuit.ops
    prep_qubits = frozenset(layout.register("alpha_minus"))
    alpha = frozenset(layout.register("alpha"))
    beta = frozenset(layout.register("beta"))
    writes = [sim.gate_target_qubits(op) for op in ops]
    n_prep = 0
    while n_prep < len(ops) - 1 and sim.gate_qubits(ops[n_prep]) <= prep_qubits:
        n_prep += 1
    first_cmp = next(i for i in range(n_prep, len(ops)) if writes[i] & alpha)
    last_cmp = max(i for i, w in enumerate(writes) if w & beta)
    labels = (
        ["prep"] * n_prep
        + ["branch"] * (first_cmp - n_prep)
        + ["comparator"] * (last_cmp + 1 - first_cmp)
        + ["branch"] * (len(ops) - 2 - last_cmp)
        + ["mark"]
    )
    runs: list[tuple[str, list]] = []
    for label, op in zip(labels, ops):
        if not runs or runs[-1][0] != label:
            runs.append((label, []))
        runs[-1][1].append(op)
    return [(label, tuple(run)) for label, run in runs]


class TracedRun:
    """Installs the wrappers and collects what the metrics are computed from."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.lock = threading.Lock()
        self.gates = 0
        self.qubits = 0
        self.queries = 0
        self.plans: list[grover.GroverPlan] = []
        self.plan_amps = 0  # sum of k * 2**N over plans
        self.zeta_adds = 0
        self.probes = 0
        self.first_states: dict[str, tuple[circuits.TransformQuery, sim.StateVector]] = {}
        self.one_shot = {
            "build_start_state": grover.build_start_state,
            "plan_grover": grover.plan_grover,
            "amplify": grover.amplify,
        }
        self._install()

    def _install(self) -> None:
        t = self.tracer
        t.wrap(cli, "classical_value", "circuits.classical_value")
        t.wrap(cli, "estimate_exact", "grover.estimate_exact", self._count_query)
        t.wrap(cli, "estimate_sampled", "grover.estimate_sampled")
        t.wrap(cli, "quadratic_objective", "minfind.quadratic_objective")
        t.wrap(cli, "choose_beta", "minfind.choose_beta")
        t.wrap(cli, "softmin_table", "minfind.softmin_table")
        t.wrap(cli, "classical_evaluator", "minfind.classical_evaluator")
        t.wrap(cli, "find_min", "minfind.find_min", self._count_probes)
        t.wrap(minfind, "zeta_fast", "subset.zeta_fast", self._count_adds)
        t.wrap(grover, "plan_grover", "grover.plan_grover", self._record_plan)
        t.wrap(grover, "amplify", "grover.amplify")
        t.wrap(circuits, "build_start_circuit", "circuits.build_start_circuit")
        t.wrap(circuits, "compile_state_prep", "sim.compile_state_prep")
        grover.build_start_state = self._replay_start_state

    def _count_query(self, args, result) -> None:
        with self.lock:
            self.queries += 1

    def _count_probes(self, args, trace) -> None:
        self.probes += len(trace.probes)

    def _count_adds(self, args, result) -> None:
        n = args[0].n
        self.zeta_adds += n << (n - 1)

    def _record_plan(self, args, plan) -> None:
        with self.lock:
            self.plans.append(plan)
            self.plan_amps += plan.iterations << args[0].layout.total_qubits

    def _replay_start_state(self, query: circuits.TransformQuery) -> sim.StateVector:
        t = self.tracer
        with t.span("circuits.build_start_state"):
            circuit = circuits.build_start_circuit(query)
            layout = circuit.layout
            state = sim.new_state(layout)
            for stage, ops in split_start_circuit(circuit):
                segment = sim.Circuit(layout, ops)
                with t.span("sim.apply." + stage):
                    state = sim.apply_circuit(state, segment)
            if abs(state.norm - 1.0) > 1e-12:
                raise circuits.DecompositionError(f"start state norm is {state.norm}")
        with self.lock:
            self.gates += len(circuit)
            self.qubits = max(self.qubits, layout.total_qubits)
            self.first_states.setdefault(str(query.x), (query, state))
        return state

    def check_states(self) -> tuple[list[str], float, list[float]]:
        """Rebuild each distinct query in one shot; returns (problems, peak ratio, realised)."""
        problems, realised, peak_ratio = [], [], 0.0
        for i, (key, (query, replayed)) in enumerate(sorted(self.first_states.items())):
            if i == 0:
                tracemalloc.start()
            one_shot = self.one_shot["build_start_state"](query)
            if i == 0:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                peak_ratio = peak / (AMP_BYTES << query.layout.total_qubits)
            if one_shot.amplitudes.tobytes() != replayed.amplitudes.tobytes():
                problems.append(f"x={key}: segmented start state differs from the one-shot build")
            plan = self.one_shot["plan_grover"](one_shot)
            final = self.one_shot["amplify"](one_shot, plan)
            _, mass = sim.project(final, sim.QubitIs(final.layout.omega_qubit, 0))
            realised.append(mass**2)
        return problems, peak_ratio, realised

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        spans = self.tracer.spans
        problems = []
        root = [s for s in spans if s[0] == self.tracer.root][0]
        root_s = root[4] - root[3]
        shares = self_times(spans)
        names = {sid: name for sid, _, name, _, _ in spans}
        out = {metric: 0.0 for metric in SELF_METRICS.values()}
        for sid, share in shares.items():
            if names[sid] not in SELF_METRICS:
                problems.append(f"span {names[sid]} has no self-time metric")
                continue
            out[SELF_METRICS[names[sid]]] += share
        total = sum(shares.values())
        if abs(total - root_s) > 1e-9 * max(1.0, root_s):
            problems.append(f"self times sum to {total} s, root span is {root_s} s")

        def total_of(prefix: str) -> float:
            return sum(e - s for _, _, name, s, e in spans if name.startswith(prefix))

        children = sum(e - s for _, p, _, s, e in spans if p == self.tracer.root)
        states = sum(1 for s in spans if s[2] == "circuits.build_start_state")
        amps = self.gates << self.qubits if self.gates else 0
        plans = self.plans
        out.update(
            {
                "cli.concurrency": children / root_s,
                "circuits.start_states_per_query": states / self.queries if self.queries else 0.0,
                "sim.gates_applied": float(self.gates),
                "sim.gates_per_query": self.gates / self.queries if self.queries else 0.0,
                "sim.qubits": float(self.qubits),
                "sim.ns_per_gate_amp": 1e9 * total_of("sim.apply.") / amps if amps else 0.0,
                "sim.state_bytes_touched": float(AMP_BYTES * amps),
                "grover.iterations": _mean([p.iterations for p in plans]),
                "grover.ns_per_step_amp": (
                    1e9 * total_of("grover.amplify") / self.plan_amps if self.plan_amps else 0.0
                ),
                "grover.overlap": _mean([p.overlap for p in plans]),
                "grover.predicted_success": _mean([p.predicted_success for p in plans]),
                "subset.butterfly_adds": float(self.zeta_adds),
                "subset.ns_per_add": (
                    1e9 * total_of("subset.zeta_fast") / self.zeta_adds if self.zeta_adds else 0.0
                ),
                "minfind.probes": float(self.probes),
                "trace.root_s": root_s,
            }
        )
        return out, problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True, help="write the metrics JSON here")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    run = TracedRun()
    with run.tracer.span("cli.main"):
        code = cli.main(cli_args)
    root_end = time.perf_counter()

    metrics, problems = run.metrics()
    state_problems, peak_ratio, realised = run.check_states()
    metrics["sim.peak_over_state"] = peak_ratio
    metrics["grover.realised_success"] = _mean(realised)
    record = {
        "metrics": metrics,
        "problems": problems + state_problems,
        "post_s": time.perf_counter() - root_end,
    }
    Path(args.record).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
