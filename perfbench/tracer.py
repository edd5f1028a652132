"""Span tracer for traced benchmark operations, and the analysis of its spans.

`Tracer.install()` wraps every public function and method of the chainlab
modules by replacing each module or class attribute bound to the same
function object, so names imported with ``from .x import y`` are covered as
well.  It also wraps ``numpy.linalg.eigh`` and ``scipy.optimize.minimize``,
so eigensolve counts and optimizer evaluations can be seen from outside the
program.  ``uninstall()`` puts every original object back.

Spans are kept in memory and written once by `Tracer.dump`.  Each span
records its name, start, end, the span that caused it and the thread it ran
on.  Parents are tracked per thread; work submitted to a
``ThreadPoolExecutor`` gets the submitting thread's open span as parent.

The analysis half (`load`, `self_times`, `layer_metrics`) is stdlib only and
runs in the benchmark's parent process.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import types
from collections import defaultdict

MODULES = ("analysis", "cli", "errors", "evolve", "gates", "linalg", "model",
           "schemes")

# Functions called more than 100k times per operation whose bodies take a
# few microseconds: a wrapper would cost more than the work it times.
SKIP = frozenset({
    "gates.EncodingMap.chain_bits",
    "gates.rz",
    "gates.ry",
    "gates.euler_zyz",
})

TASK = "task"      # extra of a span that is a thread-pool task, not a call
EIGH = "numpy.linalg.eigh"
MINIMIZE = "scipy.optimize.minimize"


def _evolve_columns(args, kwargs, result):
    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
    psi0 = args[2] if len(args) > 2 else kwargs["psi0"]
    cols = 1 if getattr(psi0, "ndim", 1) == 1 else psi0.shape[1]
    return cols * len(schedule.segments)


def _propagator_columns(args, kwargs, result):
    chain = args[0] if args else kwargs["chain"]
    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
    return chain.dim * len(schedule.segments)


def _hold_columns(args, kwargs, result):
    psi = args[3] if len(args) > 3 else kwargs["psi"]
    return psi.shape[1]


def _eigh_work(args, kwargs, result):
    shape = (args[0] if args else kwargs["a"]).shape
    batch = 1
    for d in shape[:-2]:
        batch *= d
    return batch * shape[-1] ** 3


def _minimize_result(args, kwargs, result):
    return [int(result.nfev), float(result.fun)]


# Per-call figures recorded with the span, keyed by span name.
HOOKS = {
    "evolve.evolve": _evolve_columns,
    "evolve.propagator": _propagator_columns,
    "evolve.apply_hold": _hold_columns,
    EIGH: _eigh_work,
    MINIMIZE: _minimize_result,
}


class Tracer:
    """Wraps the chainlab call graph for one process; not reentrant."""

    def __init__(self):
        self.spans: list[list] = []   # [name, t0, t1, parent span, thread, extra]
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span = [name, clock(), 0.0, stack[-1] if stack else None,
                    threading.get_ident(), None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                spans.append(span)
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_submit(self, submit):
        """Run each submitted task as a span named after the submitting
        thread's open span: its work outside wrapped calls is that
        function's own work, done on another thread."""
        spans = self.spans
        stack_of = self._stack
        local = self._local
        clock = time.perf_counter

        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            stack = stack_of()
            if not stack:
                return submit(pool, fn, *args, **kwargs)
            parent = stack[-1]

            def task(*a, **k):
                saved = stack_of()
                span = [parent[0], clock(), 0.0, parent, threading.get_ident(), TASK]
                local.stack = [span]
                try:
                    return fn(*a, **k)
                finally:
                    span[2] = clock()
                    local.stack = saved
                    spans.append(span)

            return submit(pool, task, *args, **kwargs)

        return traced_submit

    def install(self) -> "Tracer":
        import concurrent.futures
        import importlib

        import numpy.linalg
        import scipy.optimize

        mods = [importlib.import_module(f"chainlab.{m}") for m in MODULES]
        targets: dict[int, tuple[object, str]] = {}
        for mod in mods:
            short = mod.__name__.removeprefix("chainlab.")
            for attr, val in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if isinstance(val, types.FunctionType) and val.__module__ == mod.__name__:
                    name = f"{short}.{val.__qualname__}"
                    if name not in SKIP:
                        targets[id(val)] = (val, name)
                elif isinstance(val, type) and val.__module__ == mod.__name__:
                    for m_attr, m_val in list(vars(val).items()):
                        name = f"{short}.{val.__qualname__}.{m_attr}"
                        if (not m_attr.startswith("_") and name not in SKIP
                                and isinstance(m_val, types.FunctionType)):
                            self._patch(val, m_attr, self._wrap(name, m_val))
        targets[id(numpy.linalg.eigh)] = (numpy.linalg.eigh, EIGH)
        targets[id(scipy.optimize.minimize)] = (scipy.optimize.minimize, MINIMIZE)
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in targets.items()}
        for owner in mods + [numpy.linalg, scipy.optimize]:
            for attr, val in list(vars(owner).items()):
                if id(val) in wrappers and targets[id(val)][0] is val:
                    self._patch(owner, attr, wrappers[id(val)])
        pool = concurrent.futures.ThreadPoolExecutor
        self._patch(pool, "submit", self._wrap_submit(pool.submit))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans as {"names": [...], "spans": [[name index, t0, t1,
        parent index or -1, thread index, extra], ...]}."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        names: dict[str, int] = {}
        threads: dict[int, int] = {}
        rows = []
        for s in self.spans:
            rows.append([names.setdefault(s[0], len(names)), s[1], s[2],
                         -1 if s[3] is None else index[id(s[3])],
                         threads.setdefault(s[4], len(threads)), s[5]])
        with open(path, "w") as fh:
            json.dump({"names": list(names), "spans": rows}, fh)


# ---------------------------------------------------------------------------
# analysis


def load(path) -> list[tuple]:
    """Spans as (name, t0, t1, parent index, thread index, extra) tuples."""
    with open(path) as fh:
        doc = json.load(fh)
    names = doc["names"]
    return [(names[n], t0, t1, p, th, extra) for n, t0, t1, p, th, extra in doc["spans"]]


def union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_times(spans) -> list[float]:
    """Wall-clock self time per span.

    A span's own intervals are its interval minus the part its children,
    on any thread, cover.  Where own intervals of several spans overlap in
    time (threads), each gets an equal share.  So every self time is
    non-negative and their sum is the time at least one span was running.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    events = []
    for i, (_, lo, hi, _, _, _) in enumerate(spans):
        cur = lo
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            c0, c1 = max(spans[c][1], lo), min(spans[c][2], hi)
            if c0 > cur:
                events.append((cur, 1, i))
                events.append((c0, -1, i))
            cur = max(cur, c1)
        if hi > cur:
            events.append((cur, 1, i))
            events.append((hi, -1, i))
    events.sort(key=lambda e: (e[0], e[1]))
    share = [0.0] * len(spans)
    active: set[int] = set()
    prev = 0.0
    for t, delta, i in events:   # at equal times, ends come before starts
        if active and t > prev:
            part = (t - prev) / len(active)
            for j in active:
                share[j] += part
        prev = t
        if delta > 0:
            active.add(i)
        else:
            active.remove(i)
    return share


def _under(spans, i: int, name: str) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans, success_fidelity: float) -> dict[str, float]:
    """Per-layer figures of one traced operation, named
    ``<module>.<function>.<stat>``: ``calls`` counts calls, ``s`` is the wall
    time covered by at least one call, ``self_s`` the summed self time."""
    shares = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def calls(name):
        return sum(1 for i in by_name[name] if spans[i][5] != TASK)

    def covered(name):
        return union_length((spans[i][1], spans[i][2]) for i in by_name[name])

    def own(name):
        return sum(shares[i] for i in by_name[name])

    def extras(name, under=None):
        return [spans[i][5] for i in by_name[name]
                if under is None or _under(spans, i, under)]

    fid = by_name["gates.circuit_fidelity"]
    starts = extras(MINIMIZE, "gates.synthesize_cnot")
    m = {
        "evolve.evolve.calls": calls("evolve.evolve"),
        "evolve.evolve.self_s": own("evolve.evolve"),
        "evolve.propagator.calls": calls("evolve.propagator"),
        "evolve.propagator.self_s": own("evolve.propagator"),
        "evolve.apply_hold.calls": calls("evolve.apply_hold"),
        "evolve.apply_hold.self_s": own("evolve.apply_hold"),
        "evolve.columns_applied": sum(
            sum(extras(n)) for n in ("evolve.evolve", "evolve.propagator",
                                     "evolve.apply_hold")),
        "evolve.eigh.calls": calls(EIGH),
        "evolve.eigh.s": covered(EIGH),
        "evolve.eigh.work_m3": sum(extras(EIGH)),
        "gates.find_revival.calls": calls("gates.find_revival"),
        "gates.find_revival.self_s": own("gates.find_revival"),
        "gates.find_revival.evals": sum(
            1 for i in by_name["evolve.evolve"] if _under(spans, i, "gates.find_revival")),
        "gates.align_phases.s": covered("gates.align_phases"),
        "gates.align_phases.nfev": sum(e[0] for e in extras(MINIMIZE, "gates.align_phases")),
        "gates.extract_gate.s": covered("gates.extract_gate"),
        "gates.operator_schmidt_factor.calls": calls("gates.operator_schmidt_factor"),
        "gates.operator_schmidt_factor.s": covered("gates.operator_schmidt_factor"),
        "gates.circuit_fidelity.calls": len(fid),
        "gates.circuit_fidelity.s": covered("gates.circuit_fidelity"),
        "gates.circuit_fidelity.us_per_call": (
            1e6 * sum(spans[i][2] - spans[i][1] for i in fid) / len(fid) if fid else 0.0),
        "gates.synthesize_cnot.self_s": own("gates.synthesize_cnot"),
        "gates.synthesize_cnot.starts": len(starts),
        "gates.synthesize_cnot.starts_ok": sum(
            1 for _, fun in starts if 1.0 - fun > success_fidelity),
        "gates.optimizer.nfev_per_start": (
            sum(n for n, _ in starts) / len(starts) if starts else 0.0),
        "schemes.schedule_build.calls": calls("schemes.arch1_two_qubit_schedule"),
        "schemes.schedule_build.s": covered("schemes.arch1_two_qubit_schedule"),
        "schemes.zeno_run.self_s": own("schemes.zeno_run"),
        "schemes.write_csv.s": covered("schemes.ZenoStats.write_csv"),
        "linalg.op_distance.calls": calls("linalg.op_distance"),
        "linalg.op_distance.s": covered("linalg.op_distance"),
        "linalg.polar_unitary.calls": calls("linalg.polar_unitary"),
        "analysis.defect_sweep.self_s": own("analysis.defect_sweep"),
        "analysis.emit_table.s": covered("analysis.emit_table"),
        "cli.load_config.s": covered("cli.load_config"),
    }
    m["trace.self_sum_s"] = sum(shares)
    return m


# Counts that must repeat exactly across traced runs at one seed.
EXACT_COUNTS = (
    "evolve.eigh.calls",
    "evolve.eigh.work_m3",
    "evolve.columns_applied",
    "gates.find_revival.evals",
    "gates.circuit_fidelity.calls",
    "gates.optimizer.nfev_per_start",
)
