"""In-memory timing spans around calls into the slgp modules.

Tracer.install() replaces selected slgp functions, and the ``eval`` method
of every feature class, with wrappers that record one span per call:
name, start, end, parent span and thread.  No file under src/slgp is
edited.  A wrapper is put into every slgp module namespace that holds the
original function, so calls made through ``from .x import y`` bindings are
traced as well.  Tracer.uninstall() restores the originals.

The first part of a span name is its layer: the slgp module whose code
the span covers.  Besides wall-clock start and end, a span records the CPU
time of its thread.  Per-layer times are that busy time: with the CLI's
thread pool, a span's wall time also counts the time its thread waited for
the interpreter lock while the other worker ran.  A layer's self time is
the busy time of its spans minus that of their children in the same
thread.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import threading
import time
from array import array
from collections import defaultdict

# Functions wrapped with a span, by slgp module.  Per-step kodp helpers
# (cost_to_go, step_policy) are left out: they run several times per
# rollout step, so their cost is counted in the execution spans that call
# them (online_weights, compose) instead of multiplying the span count.
TARGETS = {
    "scenarios": ("build_scenario",),
    "problem": ("assemble",),
    "banded": ("banded_cholesky_solve",),
    "solver": ("solve", "_inner_gauss_newton", "gauss_newton_step",
               "kkt_residuals"),
    "laplace": ("build_component", "build_mixture", "nullspace_basis",
                "future_log_ratios"),
    "kodp": ("quadratize", "backward_pass"),
    "execution": ("build_controller", "rollout", "online_weights", "compose",
                  "_project_equalities"),
    "cli": ("main",),
}
# Modules whose classes with an ``eval`` method are features.
FEATURE_MODULES = ("features", "scenarios")
LAYERS = ("scenarios", "problem", "features", "banded", "solver", "laplace",
          "kodp", "execution", "cli")


class _Buffer:
    """Spans and notes recorded by one thread."""

    def __init__(self):
        self.thread = threading.get_ident()
        self.stack: list[int] = []
        self.ids = array("q")
        self.codes = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.cpu = array("d")
        self.notes: list[tuple[str, float]] = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._main: _Buffer | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def note(self, key: str, value: float = 1.0) -> None:
        self._buffer().notes.append((key, value))

    def wrap(self, name: str, fn, observe=None):
        """Return fn wrapped in a span; observe(tracer, result, exc) sees
        each call's outcome."""
        code = self._code(name)
        main = self._main

        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            sid = next(self._ids)
            if stack:
                parent = stack[-1]
            elif buf is not main and main is not None and main.stack:
                # Pool worker threads start with an empty stack; their work
                # was caused by the span the main thread is waiting in.
                parent = main.stack[-1]
            else:
                parent = -1
            stack.append(sid)
            start = time.perf_counter()
            cpu_start = time.thread_time()
            exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc, result = err, None
                raise
            finally:
                cpu = time.thread_time() - cpu_start
                end = time.perf_counter()
                stack.pop()
                buf.ids.append(sid)
                buf.codes.append(code)
                buf.parents.append(parent)
                buf.starts.append(start)
                buf.ends.append(end)
                buf.cpu.append(cpu)
                if observe is not None:
                    observe(self, result, exc)

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap the TARGETS functions and every feature class's eval."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._main = self._buffer()
        modules = {name: importlib.import_module(f"slgp.{name}")
                   for name in ("features", "problem", "banded", "solver",
                                "laplace", "kodp", "execution", "scenarios",
                                "cli")}
        modules["slgp"] = importlib.import_module("slgp")
        for layer, attrs in TARGETS.items():
            for attr in attrs:
                original = getattr(modules[layer], attr)
                wrapped = self.wrap(f"{layer}.{attr}", original,
                                    _OBSERVERS.get(f"{layer}.{attr}"))
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
        for layer in FEATURE_MODULES:
            mod = modules[layer]
            for value in list(vars(mod).values()):
                if (isinstance(value, type) and value.__module__ == mod.__name__
                        and "eval" in vars(value)):
                    self._patch(value, "eval",
                                self.wrap("features.eval", vars(value)["eval"]))

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- reading -----------------------------------------------------------

    def spans(self):
        """All spans as (id, name, start, end, parent, thread, cpu), by start."""
        out = []
        for buf in self._buffers:
            for sid, code, parent, start, end, cpu in zip(
                    buf.ids, buf.codes, buf.parents, buf.starts, buf.ends, buf.cpu):
                out.append((sid, self.names[code], start, end, parent,
                            buf.thread, cpu))
        out.sort(key=lambda s: s[2])
        return out

    def notes(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for buf in self._buffers:
            for key, value in buf.notes:
                totals[key] += value
        return dict(totals)

    def write(self, path) -> int:
        """Write every span as gzipped CSV; returns the span count."""
        spans = self.spans()
        t0 = spans[0][2] if spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start_s,end_s,parent,thread,cpu_s\n")
            for sid, name, start, end, parent, thread, cpu in spans:
                fh.write(f"{sid},{name},{start - t0:.9f},{end - t0:.9f},"
                         f"{parent},{thread},{cpu:.9f}\n")
        return len(spans)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds.

    Busy time is the thread CPU time inside the span.  Self time subtracts
    the busy time of child spans in the same thread; children in a pool
    thread ran while this thread waited, so they are not subtracted.
    """
    thread_of = {s[0]: s[5] for s in spans}
    child_cpu: dict[int, float] = defaultdict(float)
    for _, _, _, _, parent, thread, cpu in spans:
        if parent >= 0 and thread_of.get(parent) == thread:
            child_cpu[parent] += cpu
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, _, _, _, _, cpu in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += cpu
        row["self_s"] += cpu - child_cpu[sid]
    return dict(out)


# -- outcome observers: counts taken where the work happens ----------------

def _observe_solve(tracer, sol, exc):
    if sol is not None:
        tracer.note("solver.solves")
        tracer.note("solver.outer_iters", sol.outer_iterations)
        tracer.note("solver.inner_iters", sol.inner_iterations)
        tracer.note("solver.converged", float(sol.converged))


def _observe_banded(tracer, result, exc):
    if exc is not None and type(exc).__name__ == "FactorizationError":
        tracer.note("banded.factor_failures")


def _observe_policy(tracer, policy, exc):
    if exc is not None and type(exc).__name__ == "PolicyError":
        tracer.note("kodp.policy_failures")


def _observe_rollout(tracer, ro, exc):
    if ro is not None:
        tracer.note("execution.rollouts")
        tracer.note("execution.steps", ro.path.shape[0])
        tracer.note("execution.switches",
                    float((ro.active[1:] != ro.active[:-1]).sum()))
    elif exc is not None and type(exc).__name__ == "RolloutError":
        tracer.note("execution.aborted")


_OBSERVERS = {
    "solver.solve": _observe_solve,
    "banded.banded_cholesky_solve": _observe_banded,
    "kodp.backward_pass": _observe_policy,
    "execution.rollout": _observe_rollout,
}


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """The per-layer metrics of one traced run, by benchmark name."""
    spans = tracer.spans()
    table = summarize(spans)
    notes = tracer.notes()

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    # Line-search trials: assemble calls made directly by an inner loop,
    # less the one each inner loop makes at entry.
    inner_ids = {s[0] for s in spans if s[1] == "solver._inner_gauss_newton"}
    inner_assembles = sum(1 for s in spans
                          if s[1] == "problem.assemble" and s[4] in inner_ids)
    gn_steps = row("solver.gauss_newton_step")["calls"]
    solves = notes.get("solver.solves", 0.0)
    rollouts = notes.get("execution.rollouts", 0.0)
    steps = notes.get("execution.steps", 0.0)
    builds = row("scenarios.build_scenario")

    m: dict[str, float | None] = {
        "scenarios.build_s": builds["total_s"] / builds["calls"] if builds["calls"] else None,
        "problem.assemble_calls": row("problem.assemble")["calls"],
        "problem.assemble_s": row("problem.assemble")["total_s"],
        "features.eval_calls": row("features.eval")["calls"],
        "banded.solve_calls": row("banded.banded_cholesky_solve")["calls"],
        "banded.solve_s": row("banded.banded_cholesky_solve")["total_s"],
        "banded.factor_failures": notes.get("banded.factor_failures", 0.0),
        "solver.solve_s": row("solver.solve")["total_s"],
        "solver.outer_iters": notes.get("solver.outer_iters", 0.0),
        "solver.inner_iters": notes.get("solver.inner_iters", 0.0),
        "solver.gn_steps": gn_steps,
        "solver.trials_per_step": ((inner_assembles - len(inner_ids)) / gn_steps
                                   if gn_steps else None),
        "solver.converged_share": (notes.get("solver.converged", 0.0) / solves
                                   if solves else None),
        "laplace.component_s": row("laplace.build_component")["total_s"],
        "laplace.nullspace_calls": row("laplace.nullspace_basis")["calls"],
        "laplace.future_ratios_s": row("laplace.future_log_ratios")["total_s"],
        "kodp.quadratize_s": row("kodp.quadratize")["total_s"],
        "kodp.backward_pass_s": row("kodp.backward_pass")["total_s"],
        "kodp.policy_failures": notes.get("kodp.policy_failures", 0.0),
        "execution.controller_self_s": (row("execution.online_weights")["self_s"]
                                        + row("execution.compose")["self_s"]),
        "execution.online_weights_per_step": (
            row("execution.online_weights")["calls"] / steps if steps else None),
        "execution.step_ms": (1e3 * row("execution.rollout")["total_s"] / steps
                              if steps else None),
        "execution.switches_per_rollout": (notes.get("execution.switches", 0.0)
                                           / rollouts if rollouts else None),
        "execution.aborted": notes.get("execution.aborted", 0.0),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(r["self_s"] for name, r in table.items()
                                   if name.split(".", 1)[0] == layer)
    return m

